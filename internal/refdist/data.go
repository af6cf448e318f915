package refdist

import "math"

// Data is the serializable form of a Profile, used by the profile
// store to persist reference-distance profiles of recurring
// applications between runs (paper §4.1).
type Data struct {
	// Creation maps RDD ID to the stage/job that first computes it.
	Creation map[int]Ref `json:"creation"`
	// Reads maps RDD ID to its read references in stage order.
	Reads map[int][]Ref `json:"reads"`
}

// Data exports a deep copy of the profile's state.
func (p *Profile) Data() Data {
	d := Data{Creation: map[int]Ref{}, Reads: map[int][]Ref{}}
	for id, r := range p.creation {
		d.Creation[id] = r
	}
	for id, reads := range p.reads {
		cp := make([]Ref, len(reads))
		copy(cp, reads)
		d.Reads[id] = cp
	}
	return d
}

// FromData reconstructs a profile from its serialized form. The form
// comes from a file: an id no graph can assign (negative, or past what
// a block name carries) keeps its schedule but is not marked created —
// the created set is dense by id, and no stage can ask about such an id.
func FromData(d Data) *Profile {
	p := NewProfile()
	for id, r := range d.Creation {
		p.creation[id] = r
		if id >= 0 && id <= math.MaxInt32 {
			p.created.Mark(id)
		}
	}
	for id, reads := range d.Reads {
		cp := make([]Ref, len(reads))
		copy(cp, reads)
		p.reads[id] = cp
	}
	return p
}

// Equal reports whether two profiles record identical schedules. The
// AppProfiler uses it to detect discrepancies between a stored
// recurring profile and the DAG actually submitted.
func (p *Profile) Equal(q *Profile) bool {
	if len(p.creation) != len(q.creation) || len(p.reads) != len(q.reads) {
		return false
	}
	for id, r := range p.creation {
		if q.creation[id] != r {
			return false
		}
	}
	for id, reads := range p.reads {
		qr := q.reads[id]
		if len(qr) != len(reads) {
			return false
		}
		for i := range reads {
			if reads[i] != qr[i] {
				return false
			}
		}
	}
	return true
}
