package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/stats"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/workload"
)

// suiteOptions is the fixed reduced scale of the paper-suite workload:
// every experiment of `pacsim -experiment all`, small enough that one
// pass takes about half a second on two cores.
func suiteOptions(seed uint64) experiments.Options {
	return experiments.Options{
		Cores:           4,
		AccessesPerCore: 5000,
		Scale:           0.05,
		L1Bytes:         4 << 10,
		LLCBytes:        256 << 10,
		Seed:            seed,
		Parallel:        runtime.NumCPU(),
	}
}

// allModes are the coalescing modes in presentation order.
var allModes = []coalesce.Mode{coalesce.ModeNone, coalesce.ModeDMC, coalesce.ModePAC,
	coalesce.ModeSortNet, coalesce.ModeRowBuf}

// suitePass runs every experiment on a fresh session, the way
// `pacsim -experiment all` does, and returns each experiment's rendered
// text digest. With a tracer it records the Precompute and per-experiment
// Run spans.
func suitePass(ctx context.Context, opts experiments.Options, hooks *telemetry.Hooks, tr *tracer) (*experiments.Session, map[string]string, error) {
	s := experiments.NewSession(opts)
	s.Hooks = hooks
	sp := tr.begin("experiments", "precompute", 0)
	if err := s.Precompute(ctx, opts.Parallel); err != nil {
		return nil, nil, err
	}
	tr.finish(sp)
	digests := make(map[string]string)
	var text bytes.Buffer
	for _, e := range experiments.All() {
		sp := tr.begin("experiments", "run", 0)
		exp, _ := experiments.ByID(e.ID)
		tables, err := exp.Run(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		text.Reset()
		for _, t := range tables {
			if err := t.WriteText(&text); err != nil {
				return nil, nil, err
			}
			text.WriteByte('\n')
		}
		tr.finish(sp)
		sum := sha256.Sum256(text.Bytes())
		digests[e.ID] = hex.EncodeToString(sum[:8])
	}
	return s, digests, nil
}

// suiteStats collects the hooks events of a traced window.
type suiteStats struct {
	sims, warm                 int64
	wall                       time.Duration
	accesses                   int64
	memoHits, memoMisses       int64
	cycles, skipped, terminals int64
}

func (st *suiteStats) observe(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindSimCompleted:
		st.sims++
		st.wall += ev.Wall
		st.cycles += ev.Cycles
		st.skipped += ev.Skipped
		st.terminals++
		if ev.MachineWarm {
			st.warm++
		}
	case telemetry.KindSimCancelled, telemetry.KindSimFailed:
		st.terminals++
	case telemetry.KindMemoHit:
		st.memoHits++
	case telemetry.KindMemoMiss:
		st.memoMisses++
	case telemetry.KindCacheStats:
		st.accesses += ev.Accesses
	}
}

func runSuite(ctx context.Context, cfg runConfig) (*outcome, error) {
	opts := suiteOptions(cfg.seed)
	out := &outcome{layers: map[string]float64{}}

	// Set-up: session creation plus one warm-up pass, which pays the
	// process's lazy initialisation (heap growth, pools) before timing.
	var ref map[string]string
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		_, d, err := suitePass(ctx, opts, nil, nil)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		if ref == nil {
			ref = d
		}
	}
	mismatch := func(d map[string]string) bool { return !sameDigests(ref, d) }
	if cfg.seed == cfg.spec.DefaultSeed && !sameDigests(ref, cfg.spec.SuiteDigests) {
		// Every pass of this run is compared with the first, so a
		// first pass that disagrees with the recorded digests fails
		// them all.
		mismatch = func(map[string]string) bool { return true }
	}

	settleHeap()
	var st suiteStats
	var hooks *telemetry.Hooks
	var prof bytes.Buffer
	if cfg.tr != nil {
		hooks = &telemetry.Hooks{Observer: st.observe}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	mem := startMemSampler()
	var last *experiments.Session
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		t0 := time.Now()
		s, d, err := suitePass(ctx, opts, hooks, cfg.tr)
		if err != nil {
			return nil, err
		}
		out.headline.add(time.Since(t0))
		out.attempted++
		if mismatch(d) {
			out.failed++
		}
		last = s
	}
	window := time.Since(start)
	held, heap, gc := mem.stop()
	out.memMiB = held
	out.throughput = float64(out.attempted) / window.Seconds()
	out.named = append(out.named,
		namedMetric{"suite_s", "s", out.headline.median() / 1000, fmt.Sprintf("median of n=%d passes", len(out.headline))},
		namedMetric{"throughput", "1/s", out.throughput, "suite passes per second"})
	if cfg.tr == nil {
		return out, nil
	}

	pprof.StopCPUProfile()
	if err := profileLayers(out.layers, prof.Bytes()); err != nil {
		return nil, err
	}
	l := out.layers
	l["runtime.gc_cpu_pct"], l["runtime.heap_peak_mb"] = gc, heap
	passes := float64(out.attempted)
	if st.accesses > 0 {
		l["sim.host_ns_per_access"] = float64(st.wall.Nanoseconds()) / float64(st.accesses)
	}
	if steps := st.cycles - st.skipped; steps > 0 {
		l["sim.host_ns_per_step"] = float64(st.wall.Nanoseconds()) / float64(steps)
	}
	if st.terminals > 0 {
		l["sim.machine_warm_pct"] = 100 * float64(st.warm) / float64(st.terminals)
	}
	l["sim.wall_share_pct"] = 100 * st.wall.Seconds() / (window.Seconds() * float64(opts.Parallel))
	l["experiments.sims"] = float64(st.sims) / passes
	if n := st.memoHits + st.memoMisses; n > 0 {
		l["experiments.memo_hit_pct"] = 100 * float64(st.memoHits) / float64(n)
	}
	var pre, render dist
	var pass time.Duration
	for _, s := range cfg.tr.all() {
		switch s.name {
		case "precompute":
			if pass > 0 {
				render.add(pass)
			}
			pre.add(s.dur())
			pass = 0
		case "run":
			pass += s.dur()
		}
	}
	render.add(pass)
	l["experiments.precompute_ms"], l["experiments.render_ms"] = pre.median(), render.median()
	clientLayers(l, "suite", out.headline)

	// Exact simulated counts: sums over the default-variant results the
	// last pass memoised. They depend only on the seed.
	var results []*sim.Result
	for _, b := range workload.Names() {
		for _, m := range allModes {
			if !last.Memoized(b, m) {
				continue
			}
			r, err := last.Result(ctx, b, m)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}
	exactFromResults(l, results)
	return out, nil
}

// exactFromResults sums the simulated event counts of a set of results
// into the per-layer values.
func exactFromResults(l map[string]float64, results []*sim.Result) {
	var cycles, skipped, raw, packets, reissues int64
	for _, r := range results {
		cycles += r.Cycles
		skipped += r.SkippedCycles
		raw += r.RawRequests
		packets += r.MemPackets
		reissues += r.MSHR.Reissues
		l["workload.accesses"] += float64(r.Cache.Accesses)
		l["cache.llc_misses"] += float64(r.Cache.LLCMisses)
		l["cache.writebacks"] += float64(r.Cache.WriteBacks)
		l["mshr.merges"] += float64(r.MSHR.Merges)
		l["mshr.comparisons"] += float64(r.MSHR.Comparisons)
		l["mshr.merge_fails"] += float64(r.MSHR.MergeFails)
		l["hmc.requests"] += float64(r.HMC.Requests)
		l["hmc.bank_conflicts"] += float64(r.HMC.BankConflicts)
		l["hmc.row_activations"] += float64(r.HMC.RowActivations)
	}
	l["sim.cycles"] = float64(cycles)
	if cycles > 0 {
		l["sim.skipped_pct"] = 100 * float64(skipped) / float64(cycles)
	}
	l["coalesce.raw_requests"] = float64(raw)
	l["coalesce.mem_packets"] = float64(packets)
	// Equation 1 over the whole set, as sim.Result.CoalescingEfficiency
	// computes it per run.
	l["coalesce.efficiency_pct"] = stats.Pct(raw-(packets-reissues), raw)
}

// profileLayers adds the <group>.cpu_pct shares of a CPU profile.
func profileLayers(l map[string]float64, prof []byte) error {
	shares, _, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for g, v := range shares {
		l[metricPrefix(g)+".cpu_pct"] = v
	}
	return nil
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// recordDigests prints the paper-suite digests of the default seed for
// spec.json, after checking that a sequential pass renders the same
// tables as a parallel one.
func recordDigests(ctx context.Context, seed uint64, w io.Writer) error {
	opts := suiteOptions(seed)
	_, par, err := suitePass(ctx, opts, nil, nil)
	if err != nil {
		return err
	}
	opts.Parallel = 1
	_, seq, err := suitePass(ctx, opts, nil, nil)
	if err != nil {
		return err
	}
	if !sameDigests(par, seq) {
		return fmt.Errorf("sequential and parallel passes differ:\n%v\n%v", seq, par)
	}
	b, err := json.MarshalIndent(par, "  ", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%d experiments, seed %d:\n  %s\n", len(par), seed, b)
	return err
}
