package sim

// Robustness: randomised configurations must run to completion without
// wedging under both drivers and agree between them, and results must
// serialise cleanly to JSON (the pacsim -json output path).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/fault"
	"github.com/pacsim/pac/internal/workload"
)

// randomConfig draws one randomised machine configuration. withFaults
// additionally draws a random fault plan, so the sweep also covers
// degraded-link operation under the event kernel.
func randomConfig(rng *rand.Rand, withFaults bool) Config {
	names := workload.Names()
	modes := []coalesce.Mode{
		coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC,
		coalesce.ModeSortNet, coalesce.ModeRowBuf,
	}
	bench := names[rng.Intn(len(names))]
	mode := modes[rng.Intn(len(modes))]
	cfg := DefaultConfig(bench, mode)
	cfg.Procs = []ProcSpec{{Benchmark: bench, Cores: 1 + rng.Intn(3)}}
	cfg.Seed = uint64(rng.Int63())
	cfg.Scale = 0.01 + rng.Float64()*0.03
	cfg.AccessesPerCore = 500 + rng.Intn(2000)
	cfg.MSHRs = 4 << rng.Intn(3)
	cfg.PAC.Streams = 4 << rng.Intn(3)
	cfg.PAC.Timeout = int64(4 << rng.Intn(4))
	cfg.PAC.MAQDepth = 4 << rng.Intn(3)
	cfg.MaxOutstandingLoads = 1 + rng.Intn(4)
	cfg.IssueInterval = 1 + rng.Intn(8)
	cfg.DisableNetworkCtrl = rng.Intn(2) == 0
	cfg.Virtualize = rng.Intn(3) == 0
	cfg.Hierarchy = cache.HierarchyConfig{
		Cores: totalCoresOf(cfg.Procs),
		L1:    cache.Config{Size: 1 << (10 + rng.Intn(2)), Ways: 2 << rng.Intn(2)},
		LLC:   cache.Config{Size: 64 << (10 + rng.Intn(2)), Ways: 8},
	}
	if withFaults {
		cfg.Faults = fault.Config{
			LinkCRCRate:        rng.Float64() * 0.3,
			PoisonRate:         rng.Float64() * 0.1,
			VaultStallInterval: int64(500 + rng.Intn(5000)),
			VaultStallCycles:   int64(50 + rng.Intn(500)),
			MaxReissues:        1 + rng.Intn(8),
			Seed:               uint64(rng.Int63()),
		}
	}
	return cfg
}

// describeConfig renders the seeds that reproduce a failing draw.
func describeConfig(cfg Config) string {
	return fmt.Sprintf("%s/%v seed=%d faults=%+v",
		cfg.Procs[0].Benchmark, cfg.Mode, cfg.Seed, cfg.Faults)
}

// checkRandomConfig runs one random draw under the event kernel and the
// reference stepper: both must finish, agree byte for byte, and report
// statistics inside their valid ranges.
func checkRandomConfig(t *testing.T, cfg Config) {
	t.Helper()
	desc := describeConfig(cfg)
	t.Log(desc) // shown only on failure: the seeds that replay it
	event, ref := runBoth(t, cfg)
	assertEquivalent(t, desc, event, ref)
	if event.Cycles <= 0 {
		t.Fatalf("%s: no progress", desc)
	}
	if e := event.CoalescingEfficiency(); e < 0 || e > 100 {
		t.Fatalf("%s: efficiency %.2f out of range", desc, e)
	}
	if !cfg.Faults.Enabled() && event.Faults.Total() != 0 {
		t.Fatalf("%s: fault stats non-zero on a fault-free run", desc)
	}
}

func TestRandomConfigsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised sweep is slow")
	}
	rng := rand.New(rand.NewSource(99))
	// 25 fault-free configs, then 15 with random fault plans.
	for i := 0; i < 40; i++ {
		cfg := randomConfig(rng, i >= 25)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkRandomConfig(t, cfg) })
	}
}

// FuzzKernelEquivalence draws a random configuration (and, with faults,
// a random fault plan) from each seed and requires the event kernel to
// match the reference stepper on it.
func FuzzKernelEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 99} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, faults bool) {
		checkRandomConfig(t, randomConfig(rand.New(rand.NewSource(seed)), faults))
	})
}

func totalCoresOf(procs []ProcSpec) int {
	n := 0
	for _, p := range procs {
		n += p.Cores
	}
	return n
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := run(t, smallConfig("GS", coalesce.ModePAC))
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Cycles != res.Cycles || back.RawRequests != res.RawRequests ||
		back.MemPackets != res.MemPackets {
		t.Errorf("scalar fields lost: %+v", back)
	}
	if back.LoadLatency.N() != res.LoadLatency.N() ||
		back.LoadLatency.Value() != res.LoadLatency.Value() {
		t.Errorf("LoadLatency lost: %v vs %v", back.LoadLatency.Value(), res.LoadLatency.Value())
	}
	if back.HMC.Energy.Total() != res.HMC.Energy.Total() {
		t.Errorf("energy lost: %v vs %v", back.HMC.Energy.Total(), res.HMC.Energy.Total())
	}
	if back.PAC == nil || back.PAC.RawIn != res.PAC.RawIn {
		t.Error("PAC stats lost")
	}
	if back.CoalescingEfficiency() != res.CoalescingEfficiency() {
		t.Error("derived metrics differ after round trip")
	}
}

func TestLatencyPercentilesAndBandwidth(t *testing.T) {
	res := run(t, smallConfig("GS", coalesce.ModePAC))
	p50 := res.LoadLatencyPercentileNS(0.5)
	p99 := res.LoadLatencyPercentileNS(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles implausible: P50=%.1f P99=%.1f", p50, p99)
	}
	avg := res.AvgLoadLatencyNS()
	if p50 > avg*3 {
		t.Errorf("P50 %.1f wildly above mean %.1f", p50, avg)
	}
	if bw := res.AvgBandwidthGBs(); bw <= 0 || bw > 400 {
		t.Errorf("bandwidth %.2f GB/s implausible", bw)
	}
}
