package sim

// The alternating-shape determinism suite: the Scratch's single parked
// machine must be invisible in results no matter how configurations
// interleave — round-robin over N shapes (every checkout a rebuild),
// a same-shape repeat after that churn (a hit), and clean/faulted
// interleaving. Each scenario compares warm runs against cold baselines
// (and, for the round-robin, against the reference stepper) and pins the
// hit/miss accounting so a silently disabled cache cannot pass.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
)

// shapeSchedule builds N distinct small configurations: benchmarks
// alternate while the trace length steps, so consecutive schedule slots
// never share a machine shape.
func shapeSchedule(n int) []Config {
	benches := []string{"GS", "STREAM"}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := smallConfig(benches[i%len(benches)], coalesce.ModePAC)
		cfg.AccessesPerCore = 800 + 200*i
		cfgs[i] = cfg
	}
	return cfgs
}

// TestWarmShapeRoundRobin is the headline scenario: four shapes issued
// round-robin through one Scratch for several rounds. The single slot
// never holds the next shape, so every checkout misses and rebuilds over
// the previous run's recycled buffers. Every such result must be
// byte-identical to its cold baseline, and the cold baseline itself must
// match the reference stepper.
func TestWarmShapeRoundRobin(t *testing.T) {
	const shapes, rounds = 4, 3
	cfgs := shapeSchedule(shapes)
	cold := make([]*Result, shapes)
	for i, cfg := range cfgs {
		event, ref := runBoth(t, cfg)
		assertEquivalent(t, fmt.Sprintf("shape %d", i), event, ref)
		cold[i] = event
	}

	sc := NewScratch()
	for round := 0; round < rounds; round++ {
		for i, cfg := range cfgs {
			cfg.Scratch = sc
			warm := run(t, cfg)
			if !reflect.DeepEqual(warm, cold[i]) {
				t.Fatalf("round %d shape %d: warm result diverges from cold\nwarm: %+v\ncold: %+v",
					round, i, warm, cold[i])
			}
		}
	}

	hits, misses := sc.MachineCacheStats()
	if hits != 0 {
		t.Errorf("hits = %d, want 0 (alternating shapes never match the parked machine)", hits)
	}
	if want := uint64(shapes * rounds); misses != want {
		t.Errorf("misses = %d, want %d (every checkout a rebuild)", misses, want)
	}
}

// TestWarmShapeEvictionRebuild runs a three-shape round-robin, so each
// parked machine is displaced by the next shape's build, then repeats
// shapes back to back: the last shape parked hits, and a displaced shape
// rebuilds once, parks, and hits on its repeat. Results must not care.
func TestWarmShapeEvictionRebuild(t *testing.T) {
	cfgs := shapeSchedule(3)
	cold := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		cold[i] = run(t, cfg)
	}

	sc := NewScratch()
	runWarm := func(i int, label string) {
		t.Helper()
		cfg := cfgs[i]
		cfg.Scratch = sc
		if warm := run(t, cfg); !reflect.DeepEqual(warm, cold[i]) {
			t.Fatalf("%s: shape %d warm result diverges from cold", label, i)
		}
	}
	for i := range cfgs {
		runWarm(i, "round-robin")
	}
	if hits, misses := sc.MachineCacheStats(); hits != 0 || misses != 3 {
		t.Fatalf("after round-robin: hits/misses = %d/%d, want 0/3", hits, misses)
	}

	// The last shape is the parked one: its repeat is a hit.
	runWarm(2, "repeat of parked shape")
	if hits, _ := sc.MachineCacheStats(); hits != 1 {
		t.Fatalf("repeat of the parked shape was not a hit (hits = %d)", hits)
	}

	// A displaced shape rebuilds once, then hits on its repeat.
	runWarm(0, "rebuild of displaced shape")
	runWarm(0, "repeat after rebuild")
	if hits, misses := sc.MachineCacheStats(); hits != 2 || misses != 4 {
		t.Fatalf("after rebuild and repeat: hits/misses = %d/%d, want 2/4", hits, misses)
	}
}

// TestWarmShapeFaultedBypassStats interleaves clean and faulted runs of
// the same benchmark and pins the bypass accounting: a faulted run never
// checks a machine out (no hit) and never parks one (the clean machine
// stays parked), so the clean stream keeps hitting across it.
func TestWarmShapeFaultedBypassStats(t *testing.T) {
	clean := smallConfig("CG", coalesce.ModePAC)
	clean.AccessesPerCore = 1_000
	faulty := clean
	faulty.Faults = chaosPlan()
	coldClean := run(t, clean)
	coldFaulty := run(t, faulty)

	sc := NewScratch()
	cfg := clean
	cfg.Scratch = sc
	if got := run(t, cfg); !reflect.DeepEqual(got, coldClean) {
		t.Fatal("first warm clean run diverges from cold")
	}

	cfg = faulty
	cfg.Scratch = sc
	if got := run(t, cfg); !reflect.DeepEqual(got, coldFaulty) {
		t.Fatal("warm faulted run diverges from cold")
	}
	if hits, _ := sc.MachineCacheStats(); hits != 0 {
		t.Fatalf("faulted run hit the machine cache (hits = %d)", hits)
	}

	cfg = clean
	cfg.Scratch = sc
	if got := run(t, cfg); !reflect.DeepEqual(got, coldClean) {
		t.Fatal("clean run after faulted interleave diverges from cold")
	}
	if hits, _ := sc.MachineCacheStats(); hits != 1 {
		t.Fatalf("clean run after faulted interleave was not a hit (hits = %d)", hits)
	}
}
