package exec

import (
	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// This file is the engine's side of the stage boundary. The boundary
// procedure itself — Algorithm 1's purge and prefetch, the two-phase
// read resolution, the inserts and the prefetch ledger — is
// service.(*Advisor).Advance, run on the advisor's own stores; the
// engine only tells the advisor about worker kills, and moves real
// rows when the advisor's BytePlane hook says the accounting moved.

// advance runs the boundary for one stage: pending worker-loss
// bookkeeping, then the advisor's Advance. curCreates is published
// here, before the task wave, so tasks know which cached RDDs to read
// and which to materialize.
func (e *Engine) advance(s *dag.Stage) error {
	if k := e.cfg.Kill; k != nil && !k.Mid && k.Stage == s.ID {
		// Boundary kill: both planes die at once, deterministically.
		e.wipe(k.Worker)
		e.pendingFail = true
	}
	if e.pendingFail {
		// The bytes are already gone (for a mid-stage kill, since the
		// previous task wave); the master "hears about it" now and the
		// advisor settles the accounting.
		if err := e.adv.OnNodeFailure(e.cfg.Kill.Worker); err != nil {
			return err
		}
		e.pendingFail = false
	}

	_, creates := e.adv.Created().Frontier(s)
	e.curCreates = map[int]bool{}
	for _, r := range creates {
		e.curCreates[r.ID] = true
	}
	_, err := e.adv.Advance(s.ID)
	return err
}

// The three service.BytePlane calls, all made by the advisor on the
// master goroutine, between task waves.

// Spill follows a MEMORY_AND_DISK eviction or purge.
func (e *Engine) Spill(node int, id block.ID) {
	if moved, ok := e.nodes[node].spillToDisk(id); ok {
		e.ctr.flush(&tally{spills: 1, spillBytes: moved})
	}
}

// Drop follows a MEMORY_ONLY eviction or purge.
func (e *Engine) Drop(node int, id block.ID) { e.nodes[node].dropMem(id) }

// Load follows a prefetch arrival.
func (e *Engine) Load(node int, id block.ID) { e.nodes[node].promoteToMem(id) }
