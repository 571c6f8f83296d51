package sim

import (
	"github.com/pacsim/pac/internal/arena"
	"github.com/pacsim/pac/internal/mem"
)

// Scratch is the reusable-buffer arena of one simulation run: the parent
// free-list shared by every pipeline stage and the driver, the recycled
// outstanding/pending-fill sets, and the cores' parked-output buffers.
// Passing the same Scratch to successive runs (Config.Scratch) lets a
// long-lived worker — an experiments.Session goroutine, a pacd job —
// reach a steady state where the whole simulation loop allocates nothing.
//
// A Scratch is NOT safe for concurrent use: it must be owned by exactly
// one running simulation at a time. Hand-off between sequential runs is
// the caller's job (experiments.ScratchPool).
type Scratch struct {
	parents  *arena.SlicePool[mem.Request]
	sets     []*arena.SmallSet
	fillSets []*arena.U64Set
	outBufs  [][]outReq

	// mach is the parked component graph of the last completed run (one
	// slot: workers re-run the same configuration back to back, so one
	// machine covers the steady state). takeMachine hands it out when the
	// next run's config is compatible; an incompatible run builds fresh
	// and the newly built machine replaces the parked one on completion.
	mach *machine

	// Cumulative takeMachine outcomes. They back the warm-path tests;
	// reads are only meaningful between runs (same single-owner contract
	// as the rest of the Scratch).
	machHits, machMisses uint64

	// histHint is the high-water LoadLatencyHist capacity across runs on
	// this Scratch; pre-sizing the next run's histogram to it collapses
	// the append-driven growth reallocations into one.
	histHint int
}

// NewScratch returns an empty arena. The parent pool's poison value is an
// obviously-invalid request (out-of-range core, absurd ID), so a retained
// alias read after free either panics the run or corrupts a statistic the
// differential oracles check — never silently passes.
func NewScratch() *Scratch {
	return &Scratch{
		parents: arena.NewSlicePool[mem.Request](mem.Request{
			ID:   ^uint64(0),
			Addr: ^uint64(0),
			Core: 1 << 30,
			Proc: 1 << 30,
		}),
	}
}

// getSet hands out a cleared uint64 set.
func (s *Scratch) getSet() *arena.SmallSet {
	if n := len(s.sets); n > 0 {
		set := s.sets[n-1]
		s.sets[n-1] = nil
		s.sets = s.sets[:n-1]
		return set
	}
	return &arena.SmallSet{}
}

// putSet takes a set back for the next run; nil is ignored.
func (s *Scratch) putSet(set *arena.SmallSet) {
	if set == nil {
		return
	}
	set.Clear()
	s.sets = append(s.sets, set)
}

// getFillSet hands out a cleared hashed set for the hierarchy's
// pending-fill table, which can hold hundreds of in-flight blocks.
func (s *Scratch) getFillSet() *arena.U64Set {
	if n := len(s.fillSets); n > 0 {
		set := s.fillSets[n-1]
		s.fillSets[n-1] = nil
		s.fillSets = s.fillSets[:n-1]
		return set
	}
	return arena.NewU64Set(0)
}

// putFillSet takes a hashed set back for the next run; nil is ignored.
func (s *Scratch) putFillSet(set *arena.U64Set) {
	if set == nil {
		return
	}
	set.Clear()
	s.fillSets = append(s.fillSets, set)
}

// MachineCacheStats reports the cumulative takeMachine hit and miss
// counts for this Scratch.
func (s *Scratch) MachineCacheStats() (hits, misses uint64) {
	return s.machHits, s.machMisses
}

// takeMachine hands out the parked machine when it can run cfg, reset to
// its just-constructed state. A reset failure dismantles the machine
// back into the arena (the caller builds fresh); results are never at
// risk, only reuse.
func (s *Scratch) takeMachine(cfg *Config) (*machine, bool) {
	if m := s.mach; m != nil && machineReusable(&m.cfg, cfg) {
		s.mach = nil
		if err := m.reset(); err == nil {
			s.machHits++
			return m, true
		}
		s.dismantle(m)
	}
	s.machMisses++
	return nil, false
}

// putMachine parks a machine for the next compatible run, dismantling
// the one it displaces. Only cacheable machines that finished a
// completed (fully drained) run belong here — the caller guarantees the
// latter.
func (s *Scratch) putMachine(m *machine) {
	if m == nil || !m.cacheable {
		return
	}
	if s.mach != nil {
		s.dismantle(s.mach)
	}
	s.mach = m
}

// dismantle returns a machine's recyclable buffers to the arena pools:
// per-core outstanding sets and fully-drained parked-output buffers, and
// the hierarchy's pending-fill set. Parked machines completed their last
// run, so every buffer is quiescent; the trace cache is simply dropped
// (it is owned by the machine alone).
func (s *Scratch) dismantle(m *machine) {
	for i := range m.cores {
		c := &m.cores[i]
		s.putSet(c.outstanding)
		if c.parked() == 0 {
			s.putOutBuf(c.pendingOut)
		}
	}
	s.putFillSet(m.hier.TakeScratch())
}

// getOutBuf hands out an empty parked-output buffer.
func (s *Scratch) getOutBuf() []outReq {
	if n := len(s.outBufs); n > 0 {
		b := s.outBufs[n-1]
		s.outBufs[n-1] = nil
		s.outBufs = s.outBufs[:n-1]
		return b
	}
	return nil
}

// putOutBuf takes a buffer back for the next run.
func (s *Scratch) putOutBuf(b []outReq) {
	if cap(b) == 0 {
		return
	}
	s.outBufs = append(s.outBufs, b[:0])
}
