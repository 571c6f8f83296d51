package sim

//go:generate go run gen_events.go

import (
	"context"
	"fmt"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/engine"
	"github.com/pacsim/pac/internal/mem"
)

// runEvents runs the event kernel: each mode dispatches to its
// monomorphic driver from events_gen.go, where every NextWake/Tick/Pop on
// the pipeline, device, MSHR file and fault injector is a direct call and
// the mode-dependent branches are folded away. runReference is the only
// other driver and serves as the differential oracle. Config.normalize
// rejects modes outside the five, and buildMachine pairs each mode with
// the pipeline type its driver expects, so the error return is
// unreachable; it guards a construction change that breaks that pairing.
func (r *Runner) runEvents(ctx context.Context) error {
	switch r.cfg.Mode {
	case coalesce.ModeNone:
		if p, ok := r.pipe.(*coalesce.Passthrough); ok {
			return r.runEventsNone(ctx, p)
		}
	case coalesce.ModeDMC:
		if p, ok := r.pipe.(*coalesce.Passthrough); ok {
			return r.runEventsDMC(ctx, p)
		}
	case coalesce.ModePAC:
		if r.pac != nil {
			return r.runEventsPAC(ctx, r.pac)
		}
	case coalesce.ModeSortNet:
		if p, ok := r.pipe.(*coalesce.SortingCoalescer); ok {
			return r.runEventsSortNet(ctx, p)
		}
	case coalesce.ModeRowBuf:
		if p, ok := r.pipe.(*coalesce.RowBufferCoalescer); ok {
			return r.runEventsRowBuf(ctx, p)
		}
	}
	return fmt.Errorf("sim: no event driver for mode %v with pipeline %T", r.cfg.Mode, r.pipe)
}

// assertConcrete pins at compile time that the types the generated
// drivers are specialized for stay inside the coalesce.ConcretePipeline
// set (and therefore keep satisfying the Pipeline contract the generated
// code mirrors). *core.PAC is covered via PACAdapter, whose method set
// the PAC specialization calls under the MAQ names.
func assertConcrete[P coalesce.ConcretePipeline]() {}

var (
	_ = assertConcrete[*coalesce.Passthrough]
	_ = assertConcrete[*coalesce.SortingCoalescer]
	_ = assertConcrete[*coalesce.RowBufferCoalescer]
	_ = assertConcrete[coalesce.PACAdapter]
)

// headProbe returns ProbeMerge's verdict for the packet at the head of
// the coalescer output, memoized on (file generation, packet ID).
// ProbeMerge mutates nothing, so replaying a cached verdict is
// byte-identical to re-running the scan; the counters the drivers apply
// from cmp/fails are the same ones a fresh probe would have returned.
func (r *Runner) headProbe(pkt mem.Coalesced) (ok bool, cmp, fails int64) {
	if g := r.file.Gen(); !r.probeValid || r.probeGen != g || r.probeHeadID != pkt.ID {
		r.probeOK, r.probeCmp, r.probeFails = r.file.ProbeMerge(pkt)
		r.probeGen, r.probeHeadID, r.probeValid = g, pkt.ID, true
	}
	return r.probeOK, r.probeCmp, r.probeFails
}

// coresWake reports the earliest cycle at which any core can act. The
// event drivers call it once to seed r.coreWake and from then on keep the
// minimum current inside their step loops.
func (r *Runner) coresWake(now int64) int64 {
	wake := engine.Never
	for i := range r.cores {
		if w := r.coreWakeOf(&r.cores[i], now); w < wake {
			if w <= now+1 {
				return w
			}
			wake = w
		}
	}
	return wake
}

// coreWakeOf reports the earliest cycle at which one core can act — the
// per-core term of coresWake, which the event drivers fuse into their
// issue loops so the whole-machine minimum is a field read by the time
// the scheduler needs it. Cores with parked or stalled work that is
// retried every cycle pin the wake to now+1; a core blocked on its
// outstanding-load budget sleeps — only a device completion can free a
// slot, and the device's own wake covers that cycle.
func (r *Runner) coreWakeOf(c *coreState, now int64) int64 {
	switch {
	case c.parked() > 0:
		// Parked LLC outputs are offered to the pipeline every cycle.
		return now + 1
	case c.hasPending:
		if c.pending.Op == mem.OpFence ||
			c.outstanding.Len() < r.cfg.MaxOutstandingLoads {
			// Fences retry against the pipeline each cycle; a stalled
			// access with budget again can issue now.
			return now + 1
		}
		// Blocked on the outstanding-load budget: sleeps until a
		// completion (the device wake) releases a fill.
		return engine.Never
	case c.done:
		// Finished trace; nothing left to issue.
		return engine.Never
	case c.issued >= r.cfg.AccessesPerCore:
		// Will mark itself done on the next step.
		return now + 1
	case c.nextIssue > now+1:
		// Pacing: ALU work between memory accesses.
		return c.nextIssue
	default:
		return now + 1
	}
}
