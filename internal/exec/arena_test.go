package exec

import "testing"

// held is an allocation a test keeps alive: filled with its own tag, it
// must still hold nothing but that tag when the case ends — the arena
// never hands the same row to two live allocations.
type held struct {
	rows []Row
	tag  uint64
}

func hold(rows []Row, tag uint64) held {
	for i := range rows {
		rows[i] = Row{Key: tag, Val: tag}
	}
	return held{rows, tag}
}

func (h held) intact() bool {
	for _, r := range h.rows {
		if r.Key != h.tag || r.Val != h.tag {
			return false
		}
	}
	return true
}

// at reports whether s starts at row i of the arena's chunk c.
func at(a *arena, s []Row, c, i int) bool { return len(s) > 0 && &s[0] == &a.chunks[c][i] }

func TestArena(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, a *arena) []held
	}{
		{"bump", func(t *testing.T, a *arena) []held {
			x, y := a.alloc(3), a.alloc(5)
			if len(x) != 3 || cap(x) != 3 || len(y) != 5 || cap(y) != 5 {
				t.Errorf("alloc(3), alloc(5) gave len/cap %d/%d and %d/%d", len(x), cap(x), len(y), cap(y))
			}
			if !at(a, x, 0, 0) || !at(a, y, 0, 3) {
				t.Error("consecutive allocations are not adjacent in the first chunk")
			}
			hx, hy := hold(x, 1), hold(y, 2)
			// The clipped capacity makes an append copy out, not run on.
			if grown := append(x, Row{9, 9}); at(a, grown, 0, 0) {
				t.Error("append past an allocation stayed in the arena")
			}
			if z := a.alloc(0); len(z) != 0 {
				t.Errorf("alloc(0) has %d rows", len(z))
			}
			return []held{hx, hy}
		}},
		{"trim-last", func(t *testing.T, a *arena) []held {
			out := hold(a.alloc(10), 1)
			kept := a.trim(out.rows, 4)
			if len(kept) != 4 || cap(kept) != 4 || !at(a, kept, 0, 0) {
				t.Errorf("trim(10→4) gave len %d cap %d", len(kept), cap(kept))
			}
			next := a.alloc(2)
			if !at(a, next, 0, 4) {
				t.Error("the trimmed tail was not handed out again")
			}
			// Trimming twice, and to the same length, is harmless.
			if again := a.trim(next, 2); len(again) != 2 || a.off != 6 {
				t.Errorf("trim to the same length moved the arena to %d", a.off)
			}
			return []held{{kept, 1}, hold(next, 2)}
		}},
		{"trim-not-last", func(t *testing.T, a *arena) []held {
			outer := hold(a.alloc(10), 1)
			inner := hold(a.alloc(3), 2)
			kept := a.trim(outer.rows, 4)
			if len(kept) != 4 || a.off != 13 {
				t.Errorf("trimming an older allocation moved the arena to %d", a.off)
			}
			next := a.alloc(8)
			if !at(a, next, 0, 13) {
				t.Error("allocation after a no-op trim does not follow the latest one")
			}
			return []held{{kept, 1}, inner, hold(next, 3)}
		}},
		{"nested", func(t *testing.T, a *arena) []held {
			// gather's shape under a lineage recompute: the outer operator
			// holds rows, a nested evaluation allocates, trims and returns,
			// then the outer one allocates and trims its own output.
			before := hold(a.alloc(6), 1)
			nested := a.alloc(8)
			nested = a.trim(nested, 5)
			hn := hold(nested, 2)
			out := a.alloc(7)
			if !at(a, out, 0, 11) {
				t.Error("outer allocation does not follow the nested operator's trimmed output")
			}
			out = a.trim(out, 2)
			if a.off != 13 {
				t.Errorf("arena at %d after nested use, want 13", a.off)
			}
			return []held{before, hn, hold(out, 3)}
		}},
		{"reset", func(t *testing.T, a *arena) []held {
			hold(a.alloc(100), 1)
			a.reset()
			again := a.alloc(40)
			if !at(a, again, 0, 0) || len(a.chunks) != 1 {
				t.Errorf("reset did not rewind into the kept chunk (%d chunks)", len(a.chunks))
			}
			return []held{hold(again, 2)}
		}},
		{"next-chunk", func(t *testing.T, a *arena) []held {
			x := hold(a.alloc(arenaChunkRows-1), 1)
			y := hold(a.alloc(2), 2)
			if !at(a, y.rows, 1, 0) || len(a.chunks) != 2 {
				t.Errorf("an allocation that does not fit did not open chunk 2 (%d chunks)", len(a.chunks))
			}
			// The old chunk's allocation is no longer the latest one.
			if a.trim(x.rows, 1); a.cur != 1 || a.off != 2 {
				t.Errorf("trim of the previous chunk moved the arena to %d/%d", a.cur, a.off)
			}
			a.reset()
			a.alloc(arenaChunkRows - 1)
			a.alloc(2)
			if len(a.chunks) != 2 {
				t.Errorf("second pass over two chunks grew the arena to %d", len(a.chunks))
			}
			return []held{y}
		}},
		{"oversize", func(t *testing.T, a *arena) []held {
			small := hold(a.alloc(4), 1)
			big := a.alloc(arenaChunkRows + 1)
			if len(big) != arenaChunkRows+1 || a.off != 4 || len(a.chunks) != 1 {
				t.Errorf("oversize request touched the arena: %d rows, off %d, %d chunks", len(big), a.off, len(a.chunks))
			}
			if cut := a.trim(big, 10); len(cut) != 10 || a.off != 4 {
				t.Errorf("trim of a heap allocation moved the arena to %d", a.off)
			}
			// A heap slice as long as the latest allocation is still not it.
			if a.trim(make([]Row, 4), 1); a.off != 4 {
				t.Errorf("trim of a foreign slice moved the arena to %d", a.off)
			}
			return []held{small, hold(big, 2)}
		}},
		{"keep", func(t *testing.T, a *arena) []held {
			hold(a.alloc(50), 1)
			rows, ok := a.keep(hold(a.alloc(30), 2).rows)
			kept := held{rows, 2}
			if !ok || !at(a, rows, 0, 0) || len(rows) != 30 || cap(rows) != 30 {
				t.Errorf("keep did not move the rows to the arena's front (ok %v len %d cap %d)", ok, len(rows), cap(rows))
			}
			// The next task: a reset, then more than the first chunk has left.
			a.reset()
			if next := a.alloc(10); !at(a, next, 0, 30) {
				t.Error("reset under kept rows did not rewind to just past them")
			}
			full := hold(a.alloc(arenaChunkRows), 3)
			if !at(a, full.rows, 1, 0) {
				t.Error("a full-chunk allocation under kept rows did not open the next chunk")
			}
			// Its result is kept behind the first, from another chunk.
			rows, ok = a.keep(full.rows[:20])
			second := held{rows, 3}
			if !ok || !at(a, rows, 0, 30) || a.kept != 50 {
				t.Errorf("second keep did not land behind the first (ok %v, %d rows kept)", ok, a.kept)
			}
			// A retried attempt resets again, and trims what it allocates.
			a.reset()
			out := a.trim(a.alloc(20), 5)
			if !at(a, out, 0, 50) || a.off != 55 {
				t.Errorf("arena at %d after a trimmed allocation past the kept rows, want 55", a.off)
			}
			return []held{kept, second, hold(out, 4)}
		}},
		{"keep-overlapping", func(t *testing.T, a *arena) []held {
			// The rows start inside the range they move to.
			a.alloc(10)
			rows := a.alloc(40)
			for i := range rows {
				rows[i] = Row{Key: uint64(i), Val: uint64(i)}
			}
			kept, _ := a.keep(rows)
			if !at(a, kept, 0, 0) {
				t.Error("keep did not move the rows to the arena's front")
			}
			for i, r := range kept {
				if r.Key != uint64(i) {
					t.Fatalf("row %d reads %d after an overlapping move", i, r.Key)
				}
			}
			return nil
		}},
		{"keep-full", func(t *testing.T, a *arena) []held {
			first, _ := a.keep(a.alloc(arenaChunkRows - 10))
			h := hold(first, 1)
			a.reset()
			late := hold(a.alloc(11), 2)
			if rows, ok := a.keep(late.rows); ok || rows != nil || a.kept != arenaChunkRows-10 {
				t.Errorf("keep of 11 rows with 10 left: ok %v, %d rows kept", ok, a.kept)
			}
			// Refused rows are where they were, and ten still fit.
			rows, ok := a.keep(late.rows[:10])
			if !ok || !at(a, rows, 0, arenaChunkRows-10) {
				t.Error("keep refused rows that fill the first chunk exactly")
			}
			return []held{h, {rows, 2}}
		}},
		{"keep-oversize", func(t *testing.T, a *arena) []held {
			small, _ := a.keep(a.alloc(7))
			big := hold(a.alloc(arenaChunkRows+1), 2)
			if kept, ok := a.keep(big.rows); !ok || &kept[0] != &big.rows[0] || a.kept != 7 {
				t.Errorf("keep moved rows the heap holds (ok %v, %d rows kept)", ok, a.kept)
			}
			a.reset()
			if next := a.alloc(4); !at(a, next, 0, 7) {
				t.Error("heap-held rows moved the rewind point")
			}
			return []held{hold(small, 1), big}
		}},
		{"release", func(t *testing.T, a *arena) []held {
			a.keep(a.alloc(30))
			a.release()
			a.reset()
			again := a.alloc(8)
			if !at(a, again, 0, 0) {
				t.Error("reset after release did not rewind to the chunk's start")
			}
			// Keeping nothing pins nothing.
			var empty arena
			if kept, ok := empty.keep(nil); !ok || len(kept) != 0 || empty.kept != 0 {
				t.Errorf("keep(nil) pinned %d rows", empty.kept)
			}
			return []held{hold(again, 1)}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i, h := range c.run(t, &arena{}) {
				if !h.intact() {
					t.Errorf("live allocation %d was overwritten", i)
				}
			}
		})
	}
}
