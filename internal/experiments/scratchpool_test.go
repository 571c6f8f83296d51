package experiments

import (
	"testing"

	"github.com/pacsim/pac/internal/sim"
)

// TestScratchPoolRetentionBound proves Put drops arenas beyond max
// instead of growing without bound.
func TestScratchPoolRetentionBound(t *testing.T) {
	p := NewScratchPool(2)
	for i := 0; i < 5; i++ {
		p.Put(sim.NewScratch())
	}
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle = %d, want 2 (retention bound)", got)
	}
	p.Put(nil) // ignored
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle after Put(nil) = %d, want 2", got)
	}
}
