package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickEngineOrdering: events scheduled at arbitrary times fire in
// non-decreasing time order, and equal times fire in schedule order.
func TestQuickEngineOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		type fired struct {
			at  int64
			seq int
		}
		var got []fired
		for i, tt := range times {
			i, at := i, int64(tt)
			e.At(at, func() { got = append(got, fired{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		// And the fire times are exactly the sorted schedule.
		want := make([]int64, len(times))
		for i, tt := range times {
			want[i] = int64(tt)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range got {
			if got[i].at != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeviceConservation: a random request mix is fully served,
// total busy time equals the sum of per-request service times, and
// within each priority class completions preserve submission order.
func TestQuickDeviceConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		d := NewDevice(e, 1_000) // 1000 B/s: 1 byte = 1000 µs
		n := 1 + rng.Intn(40)
		var wantBusy int64
		var demandOrder, bgOrder []int
		var demandDone, bgDone []int
		for i := 0; i < n; i++ {
			bytes := int64(1 + rng.Intn(50))
			wantBusy += bytes * 1_000_000 / 1_000
			i := i
			if rng.Intn(2) == 0 {
				demandOrder = append(demandOrder, i)
				d.Transfer(bytes, Demand, Func(func() { demandDone = append(demandDone, i) }))
			} else {
				bgOrder = append(bgOrder, i)
				d.Transfer(bytes, Background, Func(func() { bgDone = append(bgDone, i) }))
			}
		}
		e.Run()
		if len(demandDone) != len(demandOrder) || len(bgDone) != len(bgOrder) {
			return false
		}
		for i := range demandOrder {
			if demandDone[i] != demandOrder[i] {
				return false
			}
		}
		for i := range bgOrder {
			if bgDone[i] != bgOrder[i] {
				return false
			}
		}
		return d.Busy == wantBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSlotsNeverOverSubscribe: under random acquire/hold
// durations, concurrency never exceeds the slot count and every
// acquirer eventually runs.
func TestQuickSlotsNeverOverSubscribe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		width := 1 + rng.Intn(4)
		s := NewSlots(e, width)
		n := 1 + rng.Intn(50)
		running, peak, done := 0, 0, 0
		for i := 0; i < n; i++ {
			hold := int64(1 + rng.Intn(20))
			s.Acquire(Func(func() {
				running++
				if running > peak {
					peak = running
				}
				e.After(hold, func() {
					running--
					done++
					s.Release()
				})
			}))
		}
		e.Run()
		return peak <= width && done == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
