package sim

import (
	"fmt"
	"log"
	"strings"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/core"
	"github.com/pacsim/pac/internal/hmc"
	"github.com/pacsim/pac/internal/mshr"
	"github.com/pacsim/pac/internal/prefetch"
	"github.com/pacsim/pac/internal/vm"
	"github.com/pacsim/pac/internal/workload"
)

// traceBudget caps the total number of workload accesses a machine may
// record for replay (16 bytes each, so the cap bounds the trace cache at
// 16 MiB per Scratch). A machine whose streams exceed the budget never
// records and rebuilds its generators on every reuse instead; the budget
// bounds memory only, never results.
const traceBudget = 1 << 20

// machine is the constructed component graph of one simulation
// configuration: everything NewRunner builds that outlives a single run.
// A successfully completed run parks its machine in its Scratch, and the
// next run with an equivalent configuration takes it back, restoring the
// just-constructed state through the components' exact Reset methods
// instead of re-allocating the whole graph. Equality of a reset machine
// with a fresh build is enforced by the warm-scratch byte-identity suite
// in equivalence_test.go.
type machine struct {
	cfg Config // normalized; run-scoped fields cleared (see buildMachine)

	// nextID is the shared packet/request ID counter. It lives on the
	// machine — not the Runner — because the pipeline components capture
	// the minting closure at construction, so a reused machine must keep
	// minting from the same counter; reset rewinds it so reused machines
	// mint the same ID sequence as fresh ones.
	nextID uint64

	gens   []workload.Generator
	hier   *cache.Hierarchy
	pf     *prefetch.Prefetcher
	spaces []*vm.AddressSpace
	pipe   coalesce.Pipeline
	pac    *core.PAC // nil unless Mode == ModePAC
	file   *mshr.File
	dev    *hmc.Device
	cores  []coreState

	// benchNames backs Result.Benchmarks. It is immutable after
	// construction, so sharing it across successive runs' Results is
	// safe.
	benchNames []string

	// Record-replay trace cache. A cold build records nothing: most
	// machines are never taken back, and their tapes would be pure
	// garbage. The first reuse (reset) starts recording each core's
	// access stream into trace[coreIdx], pre-sized to AccessesPerCore;
	// once a completed run has captured every stream in full, later runs
	// replay by index instead of re-running the generators — which also
	// removes generator reconstruction from reset. tapeFits marks a
	// machine whose streams fit traceBudget (the build pre-check);
	// recording is live from reset until the first complete capture.
	trace     [][]workload.Access
	tapeFits  bool
	traceOK   bool
	recording bool

	// traceSkipped marks a machine whose record-replay was skipped for
	// exceeding traceBudget at the build pre-check; traceSkipNoted
	// latches after the first terminal telemetry event has counted it,
	// so each machine reports the degradation exactly once.
	traceSkipped   bool
	traceSkipNoted bool

	// cacheable marks machines eligible for parking: deterministic
	// rebuildable workloads only (no caller-supplied generators) and no
	// fault injection (the injector is run-scoped; excluding it keeps
	// reset exact).
	cacheable bool
}

// machineReusable reports whether a machine built for config a can run
// config b after a reset. It compares every field that shapes the
// component graph or the access streams; run-scoped knobs (Hooks,
// TraceSink, MaxCycles, ReferenceStepper, Scratch) are deliberately
// excluded — both drivers run the same machine, which is what lets the
// equivalence suite share one warm Scratch between them.
func machineReusable(a, b *Config) bool {
	if b.Generators != nil || b.Faults.Enabled() {
		return false
	}
	if len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i] != b.Procs[i] {
			return false
		}
	}
	return a.Seed == b.Seed && a.Scale == b.Scale &&
		a.AccessesPerCore == b.AccessesPerCore &&
		a.Mode == b.Mode && a.PAC == b.PAC &&
		a.MSHRs == b.MSHRs && a.MaxSubentries == b.MaxSubentries &&
		a.MaxOutstandingLoads == b.MaxOutstandingLoads &&
		a.PrefetchThrottle == b.PrefetchThrottle &&
		a.IssueInterval == b.IssueInterval &&
		a.Prefetch == b.Prefetch && a.Hierarchy == b.Hierarchy &&
		a.HMC == b.HMC &&
		a.DisableNetworkCtrl == b.DisableNetworkCtrl &&
		a.Virtualize == b.Virtualize
}

// buildGenerators constructs the per-process workload generators.
func buildGenerators(cfg *Config) ([]workload.Generator, error) {
	gens := make([]workload.Generator, len(cfg.Procs))
	for p, spec := range cfg.Procs {
		g, err := workload.New(spec.Benchmark, workload.Config{
			Cores: spec.Cores,
			Seed:  cfg.Seed,
			Proc:  p,
			Scale: cfg.Scale,
		})
		if err != nil {
			return nil, err
		}
		gens[p] = g
	}
	return gens, nil
}

// buildMachine constructs the component graph for a normalized config.
// Reusable buffers come from scratch; the machine then owns them until it
// is discarded (a parked machine keeps them across runs). shared reports
// whether the Scratch is caller-supplied: only then can a parked machine
// ever be taken back, so only then does the budget pre-check matter.
func buildMachine(cfg Config, scratch *Scratch, shared bool) (*machine, error) {
	// The stored config exists to rebuild generators and to answer
	// machineReusable; holding the first run's hooks, sinks or Scratch
	// would pin them (and their captures) for the machine's lifetime.
	callerGens := cfg.Generators
	cfg.Generators = nil
	cfg.TraceSink = nil
	cfg.Hooks = nil
	cfg.Scratch = nil
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	m := &machine{cfg: cfg}
	ids := func() uint64 { m.nextID++; return m.nextID }

	if callerGens != nil {
		m.gens = callerGens
	} else {
		gens, err := buildGenerators(&m.cfg)
		if err != nil {
			return nil, err
		}
		m.gens = gens
	}
	for p, spec := range cfg.Procs {
		for i := 0; i < spec.Cores; i++ {
			m.cores = append(m.cores, coreState{
				proc:        p,
				localIdx:    i,
				outstanding: scratch.getSet(),
				pendingOut:  scratch.getOutBuf(),
				// Stagger core start-up so identical per-core
				// loops do not issue in lock-step bursts.
				nextIssue: int64(len(m.cores)) * 29,
			})
		}
	}

	m.hier = cache.NewHierarchy(cfg.Hierarchy)
	m.hier.UseScratch(scratch.getFillSet())
	m.pf = prefetch.New(cfg.Prefetch, len(m.cores))
	if cfg.Virtualize {
		for p := range cfg.Procs {
			m.spaces = append(m.spaces, vm.New(p, cfg.Seed, 0))
		}
	}
	switch cfg.Mode {
	case coalesce.ModePAC:
		m.pac = core.New(cfg.PAC, ids)
		m.pac.UseParentPool(scratch.parents)
		m.pipe = coalesce.PACAdapter{PAC: m.pac}
	case coalesce.ModeSortNet:
		sc := coalesce.NewSortingCoalescer(cfg.PAC.Streams, cfg.PAC.Timeout,
			cfg.PAC.Device.MaxReqBlocks(), ids)
		sc.UseParentPool(scratch.parents)
		m.pipe = sc
	case coalesce.ModeRowBuf:
		rb := coalesce.NewRowBufferCoalescer(cfg.HMC.RowBytes, cfg.PAC.Streams,
			cfg.PAC.Timeout, ids)
		rb.UseParentPool(scratch.parents)
		m.pipe = rb
	default:
		pt := coalesce.NewPassthrough(cfg.PAC.InputQueueDepth, ids)
		pt.UseParentPool(scratch.parents)
		m.pipe = pt
	}
	m.file = mshr.New(mshr.Config{
		Entries:       cfg.MSHRs,
		MaxSubentries: cfg.MaxSubentries,
		Adaptive:      cfg.Mode.AdaptiveMSHR(),
		MaxBlocks:     cfg.PAC.Device.MaxReqBlocks(),
	})
	m.dev = hmc.New(cfg.HMC)

	m.benchNames = make([]string, len(cfg.Procs))
	for i, p := range cfg.Procs {
		m.benchNames[i] = p.Benchmark
	}

	m.cacheable = callerGens == nil && !cfg.Faults.Enabled()
	if m.cacheable && shared {
		if total := int64(len(m.cores)) * int64(cfg.AccessesPerCore); total <= traceBudget {
			m.tapeFits = true
		} else {
			// No silent caps: warm reuse of this machine will re-run the
			// generators every time instead of replaying. Say so once.
			m.traceSkipped = true
			log.Printf("sim: workload record-replay skipped for %s: %d accesses exceed budget %d; warm runs re-generate",
				strings.Join(m.benchNames, "+"), total, traceBudget)
		}
	}
	return m, nil
}

// reset restores a parked machine to its just-constructed state so the
// next run starts exactly where a fresh build would. Components keep
// their grown storage; the ID counter rewinds; core state is rebuilt in
// place reusing its buffers. With a complete trace recording the workload
// generators are not needed at all; without one they are rebuilt (the
// previous run consumed them and generators have no rewind operation)
// and, within budget, the coming run records its streams.
func (m *machine) reset() error {
	m.nextID = 0
	m.hier.Reset()
	m.pf.Reset()
	m.pipe.Reset()
	m.file.Reset()
	m.dev.Reset()
	for i := range m.cores {
		c := &m.cores[i]
		c.outstanding.Clear()
		var out []outReq
		if cap(c.pendingOut) > 0 {
			out = c.pendingOut[:0]
		}
		*c = coreState{
			proc:        c.proc,
			localIdx:    c.localIdx,
			outstanding: c.outstanding,
			pendingOut:  out,
			nextIssue:   int64(i) * 29,
		}
	}
	if m.traceOK {
		m.gens = nil // every access replays from the trace
		return nil
	}
	gens, err := buildGenerators(&m.cfg)
	if err != nil {
		// Unreachable for a machine that was built once already, but a
		// caller must know reuse failed rather than run a half-reset
		// graph.
		return fmt.Errorf("sim: rebuilding generators for cached machine: %w", err)
	}
	m.gens = gens
	if m.tapeFits {
		m.startRecording()
	}
	return nil
}

// startRecording arms a capture of every core's stream. The tapes share
// one backing array, each capped at AccessesPerCore, so recording never
// grows a slice; a capture that was cut short (a resumed run) is rewound
// and its storage reused.
func (m *machine) startRecording() {
	n := m.cfg.AccessesPerCore
	if m.trace == nil {
		buf := make([]workload.Access, len(m.cores)*n)
		m.trace = make([][]workload.Access, len(m.cores))
		for i := range m.trace {
			m.trace[i] = buf[i*n : i*n : (i+1)*n]
		}
	}
	for i := range m.trace {
		m.trace[i] = m.trace[i][:0]
	}
	m.recording = true
}

// nextAccess yields core coreIdx's next trace access: replayed from the
// machine's recorded trace when complete, generated (and, on a reused
// machine, recorded) otherwise. The caller's c.issued is the per-core
// stream position — every core calls this exactly AccessesPerCore times
// in a completed run, in issue order, which is what makes index replay
// exact.
func (r *Runner) nextAccess(c *coreState, coreIdx int) workload.Access {
	m := r.m
	if m.traceOK {
		return m.trace[coreIdx][c.issued]
	}
	a := m.gens[c.proc].Next(c.localIdx)
	if m.recording {
		m.trace[coreIdx] = append(m.trace[coreIdx], a)
	}
	return a
}

// finishRecording promotes the trace cache to replayable once a completed
// run has captured every core's full stream.
func (m *machine) finishRecording(accessesPerCore int) {
	if !m.recording {
		return
	}
	for i := range m.trace {
		if len(m.trace[i]) != accessesPerCore {
			return
		}
	}
	m.recording = false
	m.traceOK = true
}
