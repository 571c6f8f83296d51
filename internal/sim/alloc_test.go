package sim

// Steady-state allocation gates for the whole machine, plus the
// poison-on-free aliasing oracle: with every layer drawing from the
// run's Scratch, the simulation loop must stop allocating once its
// buffers reach their high-water marks, and enabling the arena's
// debug mode (freed buffers overwritten with poison) must leave every
// result byte-identical — a retained alias would corrupt a counter the
// comparison catches.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/pacsim/pac/internal/arena"
)

// TestStepSteadyStateAllocFree drives the reference step path directly:
// after a priming stretch, whole windows of thousands of cycles must
// allocate nothing in any coalescing mode. Rare amortized-growth events
// (a histogram gaining a bin for a new maximum latency, a free-list
// reaching a new high-water mark) are legal, so the gate requires SOME
// window to be allocation-free rather than every window — a per-event
// leak pollutes all of them.
func TestStepSteadyStateAllocFree(t *testing.T) {
	if arena.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("GS", mode)
			cfg.AccessesPerCore = 1 << 30 // never finishes within the test
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30_000; i++ { // prime: grow every buffer
				r.step()
			}
			var ms runtime.MemStats
			var minAllocs uint64 = ^uint64(0)
			for w := 0; w < 8 && minAllocs > 0; w++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for i := 0; i < 2_000; i++ {
					r.step()
				}
				runtime.ReadMemStats(&ms)
				if n := ms.Mallocs - before; n < minAllocs {
					minAllocs = n
				}
			}
			if minAllocs != 0 {
				t.Errorf("%s: every 2000-cycle window allocates (best: %d) — the step path leaks per event", mode, minAllocs)
			}
		})
	}
}

// warmRunAllocBudget caps the allocations of a whole simulation on a
// warm shared Scratch, parked machine and all. A warm run reads 4 for
// PAC (the Runner struct plus three histogram pre-sizes) and 2 for every
// other mode, so 16 leaves headroom for a legitimate new per-run
// allocation or two while catching any slide back toward per-run graph
// reconstruction (168 allocs). Allocation counts are host-deterministic,
// so this is a hard gate.
const warmRunAllocBudget = 16

// TestScratchReuseAcrossRuns proves the Session contract: sharing one
// Scratch across sequential runs changes no result, the warmed second
// run allocates substantially less than the cold first one, and it
// stays within warmRunAllocBudget.
func TestScratchReuseAcrossRuns(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := smallConfig("CG", mode)
			cfg.AccessesPerCore = 1_000
			want := run(t, cfg)

			sc := NewScratch()
			cfg.Scratch = sc
			first := run(t, cfg)
			second := run(t, cfg)
			if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
				t.Fatalf("%s: results change when a Scratch is shared across runs", mode)
			}
			if arena.RaceEnabled {
				return
			}
			// A full small run allocates little beyond machine
			// construction (caches, queues), which Scratch does not
			// cover; the gate only demands the warmed arena saves a
			// measurable slice of it.
			cold := testing.AllocsPerRun(5, func() {
				cfg.Scratch = NewScratch()
				run(t, cfg)
			})
			warm := testing.AllocsPerRun(5, func() {
				cfg.Scratch = sc
				run(t, cfg)
			})
			if warm > cold-5 {
				t.Errorf("%s: warmed run allocates %.0f times vs %.0f cold — scratch reuse is not engaging", mode, warm, cold)
			}
			if warm > warmRunAllocBudget {
				t.Errorf("%s: warmed run allocates %.0f times, over the budget of %d", mode, warm, warmRunAllocBudget)
			}
		})
	}
}

// TestDebugPoisonEquivalence runs the full benchmark × mode matrix once
// with arena debug mode on: every buffer returned to a pool is
// overwritten with poison, so any component still holding an alias
// reads sentinel garbage and diverges from the normal run.
func TestDebugPoisonEquivalence(t *testing.T) {
	for _, mode := range allModes {
		for _, bench := range []string{"GS", "BFS"} {
			label := fmt.Sprintf("%s/%s", bench, mode)
			t.Run(label, func(t *testing.T) {
				cfg := smallConfig(bench, mode)
				cfg.AccessesPerCore = 1_200
				want := run(t, cfg)

				arena.SetDebug(true)
				defer arena.SetDebug(false)
				got := run(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: poison-on-free changes the result — a freed buffer is still referenced\nnormal: %+v\npoison: %+v",
						label, want, got)
				}
			})
		}
	}
}
