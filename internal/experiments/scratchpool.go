package experiments

import (
	"runtime"
	"sync"

	"github.com/pacsim/pac/internal/sim"
)

// ScratchPool is a pool of sim.Scratch arenas. Unlike a sync.Pool, it
// can be shared across sessions — recycled buffers and parked machines
// then survive session LRU eviction — and it never drops arenas to a GC
// cycle. Get hands out the most recently returned arena, whose buffers
// are the warmest.
//
// Each Scratch is owned by exactly one running simulation at a time;
// the pool only hands out idle arenas. Scratches never affect results.
type ScratchPool struct {
	mu   sync.Mutex
	free []*sim.Scratch
	// max bounds the idle arenas retained; returns beyond it are
	// dropped to the GC (never silently — the bound is by construction,
	// sized to the maximum useful concurrency).
	max int
}

// NewScratchPool builds a pool retaining at most max idle arenas
// (0 means twice GOMAXPROCS — enough for every worker plus hand-off
// slack).
func NewScratchPool(max int) *ScratchPool {
	if max <= 0 {
		max = 2 * runtime.GOMAXPROCS(0)
	}
	return &ScratchPool{max: max}
}

// Get hands out the most recently returned idle arena, or a fresh one
// when the pool is empty. The caller owns the arena until Put.
func (p *ScratchPool) Get() *sim.Scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return sc
	}
	return sim.NewScratch()
}

// Put returns an idle arena to the pool; arenas beyond the retention
// bound are dropped. nil is ignored.
func (p *ScratchPool) Put(sc *sim.Scratch) {
	if sc == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= p.max {
		return
	}
	p.free = append(p.free, sc)
}

// Idle reports how many arenas are currently pooled.
func (p *ScratchPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
