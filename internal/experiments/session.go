package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/pacsim/pac/internal/cache"
	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/workload"
)

// simKey identifies one memoised simulation.
type simKey struct {
	bench string
	mode  coalesce.Mode
	v     variant
}

func (k simKey) String() string { return fmt.Sprintf("%s/%d/%s", k.bench, k.mode, k.v) }

// CheckpointPolicy lets a serving layer persist and resume mid-run
// simulation state. When a session has one, every default-variant
// simulation emits a sim.Checkpoint through Sink at the configured
// cadence, consults Load before starting (a stored checkpoint resumes
// the run mid-flight; one that no longer matches is dropped and the run
// starts fresh), and drops its checkpoint once it completes. Resumed
// runs are byte-identical to uninterrupted ones — the sim layer's
// checkpoint contract — so memoised results never depend on whether a
// crash happened. Non-default variants (the experiment sweeps) are
// short and numerous; they run without checkpoints.
type CheckpointPolicy struct {
	// Every is the checkpoint cadence in simulated cycles (<= 0
	// disables emission; Load/Drop still apply).
	Every int64
	// Sink receives each emitted checkpoint. It runs on the simulation
	// goroutine, so slow sinks stretch the run.
	Sink func(bench string, mode coalesce.Mode, ck *sim.Checkpoint)
	// Load returns the stored checkpoint for a key, or nil.
	Load func(bench string, mode coalesce.Mode) *sim.Checkpoint
	// Drop discards the stored checkpoint (called after a completed run,
	// and when a loaded checkpoint fails to restore).
	Drop func(bench string, mode coalesce.Mode)
}

// memoEntry is one singleflight slot: a detached goroutine computes the
// value and closes done; every caller for the key — including the one
// that created the entry — blocks on done (or its own context) and
// shares the result. The entry's flight tracks who is still waiting.
type memoEntry[T any] struct {
	done chan struct{}
	val  T
	err  error
	*flight
}

// flight is the detached run behind one or two memo entries. waiters
// counts the callers currently blocked on any of them; when the last one
// disconnects before the run is done, cancel aborts the simulation and
// its entries leave the memo so a later request runs fresh. A fused
// trace capture shares one flight between its trace entry and the
// {bench, PAC, default} simulation entry it also fills.
type flight struct {
	waiters int // guarded by the session mutex
	cancel  context.CancelFunc
}

// Session runs experiments with memoised simulation results. It is safe
// for concurrent use: concurrent callers asking for the same
// (benchmark, mode, variant) combination share a single simulation run,
// and Precompute fans the whole working set out over a worker pool.
//
// Each simulation's sim.Runner is created, run, and discarded inside one
// dedicated goroutine; no simulator state is ever shared between
// goroutines. Callers pass a context: an individual caller abandoning a
// shared run does not abort it while other waiters remain, but when the
// last waiter disconnects, the in-flight simulation is cancelled and
// evicted from the memo.
type Session struct {
	opts Options

	// mu guards the memo maps, the progress counters, and every
	// invocation of the progress callback.
	mu      sync.Mutex
	sims    map[simKey]*memoEntry[*sim.Result]
	traces  map[string]*memoEntry[[]mem.Request]
	ran     int // completed simulation runs
	planned int // total jobs known in advance (set by Precompute)
	latched bool
	progFn  func(string)
	hooks   *telemetry.Hooks
	ckpt    *CheckpointPolicy

	// scratch recycles sim.Scratch arenas across the session's runs, so
	// a long-lived session (the pacd worker pool) reaches a steady state
	// where simulations reuse buffers instead of allocating. Each arena
	// is owned by exactly one run at a time; Scratch never affects
	// results. It is the latched value of Scratches (a private pool when
	// the caller set none).
	scratch *ScratchPool

	// Progress, when set, receives a line per completed simulation or
	// trace capture. It MUST be assigned before the session's first
	// result is requested and never reassigned afterwards: the session
	// latches the callback on first use (later writes are ignored) and
	// serializes all invocations under the session mutex, so the
	// callback itself needs no locking. During a Precompute run the
	// lines carry a monotonic "[k/n]" completion prefix.
	Progress func(string)

	// Hooks, when set, receives telemetry events: a memo hit or miss
	// per lookup, and the per-simulation lifecycle events emitted by
	// sim.Runner. Like Progress it is latched on first use; the hooks
	// type serializes its own invocations, so one *telemetry.Hooks may
	// be shared across sessions.
	Hooks *telemetry.Hooks

	// Checkpoints, when set, is the crash-recovery policy for this
	// session's default-variant simulations (see CheckpointPolicy). Like
	// Progress and Hooks it is latched on first use.
	Checkpoints *CheckpointPolicy

	// Scratches, when set, is a shared arena pool — one pool across
	// every session of a pacd, so recycled buffers survive session
	// eviction. Like Progress and Hooks it is latched on first use;
	// unset, the session uses a private pool (same reuse within the
	// session).
	Scratches *ScratchPool
}

// NewSession creates a session.
func NewSession(opts Options) *Session {
	return &Session{
		opts:   opts.normalized(),
		sims:   make(map[simKey]*memoEntry[*sim.Result]),
		traces: make(map[string]*memoEntry[[]mem.Request]),
	}
}

// Options returns the session's normalized options.
func (s *Session) Options() Options { return s.opts }

// latchLocked captures the Progress and Hooks callbacks the first time
// the session starts any work, enforcing the set-before-first-use
// contract: whatever the fields hold at that moment is what every
// simulation reports to, and later writes have no effect.
func (s *Session) latchLocked() {
	if !s.latched {
		s.latched = true
		s.progFn = s.Progress
		s.hooks = s.Hooks
		s.ckpt = s.Checkpoints
		s.scratch = s.Scratches
		if s.scratch == nil {
			s.scratch = NewScratchPool(0)
		}
	}
}

// noteDone records one completed job and emits its progress line, both
// under the session mutex so lines are serialized and the "[k/n]"
// counter is monotonic.
func (s *Session) noteDone(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ran++
	if s.progFn == nil {
		return
	}
	if s.planned > 0 {
		line = fmt.Sprintf("[%d/%d] %s", s.ran, s.planned, line)
	}
	s.progFn(line)
}

// noteMemo emits the memo hit/miss telemetry event for one lookup.
func (s *Session) noteMemo(hooks *telemetry.Hooks, hit bool, bench, mode string) {
	kind := telemetry.KindMemoMiss
	if hit {
		kind = telemetry.KindMemoHit
	}
	hooks.Emit(telemetry.Event{Kind: kind, Bench: bench, Mode: mode})
}

// cancelled reports whether err stems from context cancellation or a
// deadline; such results must not stay memoised.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Result runs (or recalls) the benchmark under the given mode with the
// session's options — the exported entry point the pacd service builds
// its result cache on. Concurrent callers for the same combination share
// one simulation; ctx follows the waiter-disconnect contract described
// on Session.
func (s *Session) Result(ctx context.Context, bench string, mode coalesce.Mode) (*sim.Result, error) {
	return s.resultCtx(ctx, bench, mode, varDefault)
}

// Memoized reports whether the benchmark/mode combination has a
// successfully completed result in the memo (in-flight runs report
// false).
func (s *Session) Memoized(bench string, mode coalesce.Mode) bool {
	s.mu.Lock()
	e, ok := s.sims[simKey{bench, mode, varDefault}]
	s.mu.Unlock()
	return ok && e.isDone() && e.err == nil
}

// Seed installs an already-completed result into the memo — the durable
// result store's path back into a session, at warm boot and on disk or
// peer cache hits. The entry is created pre-resolved, so later Result
// calls for the combination return res without running a simulation. A
// combination that already has a memo entry (completed or in flight) is
// left untouched and Seed reports false.
func (s *Session) Seed(bench string, mode coalesce.Mode, res *sim.Result) bool {
	if res == nil {
		return false
	}
	k := simKey{bench, mode, varDefault}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sims[k]; exists {
		return false
	}
	done := make(chan struct{})
	close(done)
	s.sims[k] = &memoEntry[*sim.Result]{done: done, val: res, flight: &flight{cancel: func() {}}}
	return true
}

// result is the context-free recall used by the experiment drivers;
// their cancellation happens through Precompute, which executes every
// declared need with the caller's context before the tables render.
func (s *Session) result(bench string, mode coalesce.Mode, v variant) (*sim.Result, error) {
	return s.resultCtx(context.Background(), bench, mode, v)
}

// resultCtx runs (or recalls) one simulation. Concurrent callers for the
// same key block until the executing goroutine finishes and then share
// its *sim.Result; a caller whose ctx expires first unregisters, and the
// last such caller aborts the run.
func (s *Session) resultCtx(ctx context.Context, bench string, mode coalesce.Mode, v variant) (*sim.Result, error) {
	k := simKey{bench, mode, v}
	for {
		s.mu.Lock()
		e, hit := s.sims[k]
		if !hit {
			runCtx, cancelRun := context.WithCancel(context.Background())
			e = &memoEntry[*sim.Result]{done: make(chan struct{}), flight: &flight{cancel: cancelRun}}
			s.sims[k] = e
			s.latchLocked()
			entry := e
			go func() {
				defer cancelRun()
				entry.val, entry.err = s.runSim(runCtx, k, nil)
				s.settleSim(k, entry)
			}()
		}
		e.waiters++
		hooks := s.hooks
		s.mu.Unlock()
		s.noteMemo(hooks, hit, bench, mode.String())

		if res, err, retry := awaitEntry(s, ctx, e, k); !retry {
			return res, err
		}
	}
}

// awaitEntry blocks one registered waiter on e until the run finishes or
// ctx expires. retry reports a run aborted by *other* waiters' departure:
// it memoised a cancellation error and left the memo, so a caller whose
// own context is still live tries again on a fresh entry. A caller whose
// context expires first unregisters, and the last waiter of the flight
// aborts the run; it gets an error naming what wrapping ctx.Err().
func awaitEntry[T any](s *Session, ctx context.Context, e *memoEntry[T], what fmt.Stringer) (val T, err error, retry bool) {
	select {
	case <-e.done:
		s.mu.Lock()
		e.waiters--
		s.mu.Unlock()
		if cancelled(e.err) && ctx.Err() == nil {
			return val, nil, true
		}
		return e.val, e.err, false
	case <-ctx.Done():
		s.mu.Lock()
		e.waiters--
		if e.isDone() {
			// Finished while we were leaving: use the result.
			s.mu.Unlock()
			return e.val, e.err, false
		}
		last := e.waiters == 0
		s.mu.Unlock()
		if last {
			e.cancel()
		}
		return val, fmt.Errorf("experiments: %s abandoned: %w", what, ctx.Err()), false
	}
}

// isDone reports whether the entry's run has finished.
func (e *memoEntry[T]) isDone() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// settleSim publishes a finished simulation entry. No failure stays
// memoised: cancellations because a fresh caller must rerun, and hard
// failures so the daemon's job-retry layer gets a real second attempt
// instead of the cached error.
func (s *Session) settleSim(k simKey, e *memoEntry[*sim.Result]) {
	if e.err != nil {
		s.evictSim(k, e)
	}
	close(e.done)
}

// evictSim removes a cancelled entry from the memo (unless a newer entry
// already replaced it).
func (s *Session) evictSim(k simKey, e *memoEntry[*sim.Result]) {
	s.mu.Lock()
	if s.sims[k] == e {
		delete(s.sims, k)
	}
	s.mu.Unlock()
}

// capture collects the LLC request stream of one trace run.
type capture struct {
	reqs []mem.Request
	// alone marks a stand-alone capture: the run exists only for its
	// stream, so it neither resumes from nor writes checkpoints.
	alone bool
	// partial reports a run resumed from a checkpoint: reqs then hold
	// only the tail of the stream.
	partial bool
}

// traceKey labels a trace capture in errors.
type traceKey string

func (k traceKey) String() string { return "trace " + string(k) }

// runSim executes one simulation to completion. The runner lives and
// dies on the calling goroutine. A non-nil tr also captures the run's
// LLC request stream into tr.reqs.
func (s *Session) runSim(ctx context.Context, k simKey, tr *capture) (*sim.Result, error) {
	cfg := s.simConfig(k.bench, k.mode, k.v)
	cfg.Hooks = s.hooks
	cfg.Scratch = s.scratch.Get()
	defer s.scratch.Put(cfg.Scratch)
	var what fmt.Stringer = k
	cp := s.ckpt
	if tr != nil {
		cfg.TraceSink = func(r mem.Request) { tr.reqs = append(tr.reqs, r) }
		if tr.alone {
			what, cp = traceKey(k.bench), nil
		}
	}
	runner, resumed, err := s.newRunner(cfg, k, cp)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	res, err := runner.RunContext(ctx)
	if err != nil {
		// A cancelled run keeps its latest checkpoint: the whole point is
		// that the next attempt resumes instead of restarting.
		return nil, fmt.Errorf("experiments: %s: %w", what, err)
	}
	if cp != nil && cp.Drop != nil && k.v == varDefault {
		cp.Drop(k.bench, k.mode)
	}
	line := fmt.Sprintf("ran %-10s %-9s %-6s cycles=%d", k.bench, k.mode, k.v, res.Cycles)
	switch {
	case tr == nil:
	case tr.alone:
		line = fmt.Sprintf("traced %-10s requests=%d", k.bench, len(tr.reqs))
	case resumed:
		tr.partial = true
	default:
		line += fmt.Sprintf(" traced requests=%d", len(tr.reqs))
	}
	s.noteDone(line)
	return res, nil
}

// newRunner builds the run's sim.Runner, applying the checkpoint policy
// cp (nil for none) to default-variant keys: arm the checkpoint sink,
// and resume from a stored checkpoint when one restores cleanly. A
// checkpoint that fails to restore (changed options, corrupt state) is
// dropped and the run starts fresh — stale recovery state must never
// block new work.
func (s *Session) newRunner(cfg sim.Config, k simKey, cp *CheckpointPolicy) (r *sim.Runner, resumed bool, err error) {
	if cp == nil || k.v != varDefault {
		r, err = sim.NewRunner(cfg)
		return r, false, err
	}
	if cp.Every > 0 && cp.Sink != nil {
		bench, mode := k.bench, k.mode
		cfg.CheckpointEvery = cp.Every
		cfg.CheckpointSink = func(ck *sim.Checkpoint) { cp.Sink(bench, mode, ck) }
	}
	if cp.Load != nil {
		if ck := cp.Load(k.bench, k.mode); ck != nil {
			if r, err := sim.ResumeFrom(cfg, ck); err == nil {
				s.noteResumed(k, ck.Now)
				return r, true, nil
			}
			if cp.Drop != nil {
				cp.Drop(k.bench, k.mode)
			}
		}
	}
	r, err = sim.NewRunner(cfg)
	return r, false, err
}

// noteResumed emits the resume progress line; serving layers and the
// recovery smoke test read the cycle offset from it.
func (s *Session) noteResumed(k simKey, cycle int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.progFn != nil {
		s.progFn(fmt.Sprintf("resumed %s %s from checkpoint at cycle %d", k.bench, k.mode, cycle))
	}
}

// trace captures (or recalls) the LLC-level request stream of one
// benchmark under the PAC configuration; used by the trace analyses of
// Figures 2, 8 and 9. Traces are memoised with the same singleflight and
// cancellation discipline as results, and a capture started before the
// {bench, PAC, default} result exists also memoises that result.
func (s *Session) trace(bench string) ([]mem.Request, error) {
	return s.traceCtx(context.Background(), bench)
}

func (s *Session) traceCtx(ctx context.Context, bench string) ([]mem.Request, error) {
	for {
		s.mu.Lock()
		e, hit := s.traces[bench]
		if !hit {
			e = s.startTraceLocked(bench)
		}
		e.waiters++
		hooks := s.hooks
		s.mu.Unlock()
		s.noteMemo(hooks, hit, "trace:"+bench, "")

		if reqs, err, retry := awaitEntry(s, ctx, e, traceKey(bench)); !retry {
			return reqs, err
		}
	}
}

// startTraceLocked creates bench's trace entry and launches its capture.
// The trace is the request stream of the {bench, PAC, default}
// simulation, so when that simulation has no memo entry yet the capture
// is that simulation: one run attaches the sink and fills both entries,
// which share a flight. A stand-alone capture runs only as a fallback:
// when the result is already memoised or in flight, or when the fused
// run resumed from a checkpoint and so saw only the tail of the stream.
func (s *Session) startTraceLocked(bench string) *memoEntry[[]mem.Request] {
	s.latchLocked()
	runCtx, cancelRun := context.WithCancel(context.Background())
	f := &flight{cancel: cancelRun}
	e := &memoEntry[[]mem.Request]{done: make(chan struct{}), flight: f}
	s.traces[bench] = e
	k := simKey{bench, coalesce.ModePAC, varDefault}
	var res *memoEntry[*sim.Result]
	if _, ok := s.sims[k]; !ok {
		res = &memoEntry[*sim.Result]{done: make(chan struct{}), flight: f}
		s.sims[k] = res
	}
	go func() {
		defer cancelRun()
		var fused capture
		if res != nil {
			res.val, res.err = s.runSim(runCtx, k, &fused)
			s.settleSim(k, res)
			e.val, e.err = fused.reqs, res.err
		}
		if res == nil || (res.err == nil && fused.partial) {
			alone := capture{alone: true}
			_, e.err = s.runSim(runCtx, k, &alone)
			e.val = alone.reqs
		}
		if e.err != nil {
			// Mirror settleSim: failed captures leave the memo so a
			// retry re-runs them.
			e.val = nil
			s.mu.Lock()
			if s.traces[bench] == e {
				delete(s.traces, bench)
			}
			s.mu.Unlock()
		}
		close(e.done)
	}()
	return e
}

// simConfig builds the simulator configuration for one run.
func (s *Session) simConfig(bench string, mode coalesce.Mode, v variant) sim.Config {
	cfg := sim.DefaultConfig(bench, mode)
	cfg.Seed = s.opts.Seed
	cfg.Scale = s.opts.Scale
	cfg.AccessesPerCore = s.opts.AccessesPerCore
	cfg.Procs = []sim.ProcSpec{{Benchmark: bench, Cores: s.opts.Cores}}
	if v == varMulti {
		half := s.opts.Cores / 2
		if half == 0 {
			half = 1
		}
		cfg.Procs = []sim.ProcSpec{
			{Benchmark: bench, Cores: half},
			{Benchmark: partnerOf(bench), Cores: half},
		}
	}
	if v == varNoCtrl {
		cfg.DisableNetworkCtrl = true
	}
	switch v {
	case varFaultLo, varFaultHi:
		cfg.Faults = faultPlanOf(v)
	default:
		cfg.Faults = s.opts.Faults
	}
	if s.opts.L1Bytes > 0 || s.opts.LLCBytes > 0 {
		h := cache.DefaultHierarchyConfig(totalCores(cfg.Procs))
		if s.opts.L1Bytes > 0 {
			h.L1.Size = s.opts.L1Bytes
		}
		if s.opts.LLCBytes > 0 {
			h.LLC.Size = s.opts.LLCBytes
		}
		cfg.Hierarchy = h
	}
	return cfg
}

// need names one precomputable unit of work: a memoised simulation, or
// (when trace is set) a captured LLC request trace.
type need struct {
	bench string
	mode  coalesce.Mode
	v     variant
	trace bool
}

// simNeed declares one simulation dependency.
func simNeed(bench string, mode coalesce.Mode, v variant) need {
	return need{bench: bench, mode: mode, v: v}
}

// traceNeed declares one trace-capture dependency.
func traceNeed(bench string) need { return need{bench: bench, trace: true} }

// sweep declares one simulation per benchmark of the canonical suite for
// each of the given modes under one variant.
func sweep(v variant, modes ...coalesce.Mode) []need {
	var out []need
	for _, b := range workload.Names() {
		for _, m := range modes {
			out = append(out, simNeed(b, m, v))
		}
	}
	return out
}

// allTraces declares a trace capture per benchmark of the canonical
// suite.
func allTraces() []need {
	var out []need
	for _, b := range workload.Names() {
		out = append(out, traceNeed(b))
	}
	return out
}

// Precompute discovers every simulation and trace capture the named
// experiments (every registered experiment when none are named) will
// request and runs them through a bounded worker pool before returning.
// Subsequent Experiment.Run calls then assemble their tables purely from
// the memo, so the rendered output is byte-identical to a sequential
// run — the table contents depend only on each simulation's own
// deterministic result, never on completion order.
//
// Cancelling ctx stops feeding the pool and abandons the in-flight
// simulations (each aborts once its last waiter disconnects); Precompute
// then returns the context error. workers <= 0 falls back to
// Options.Parallel, and to runtime.GOMAXPROCS(0) when that is unset too.
// Failed simulations are reported but never stay memoised — Precompute
// returns the first error encountered, and a caller re-running the
// failing experiment (the daemon's job-retry path) executes the failed
// work fresh.
func (s *Session) Precompute(ctx context.Context, workers int, ids ...string) error {
	exps := All()
	if len(ids) > 0 {
		exps = exps[:0:0]
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				return fmt.Errorf("experiments: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	seen := make(map[need]bool)
	var jobs []need
	for _, e := range exps {
		if e.Needs == nil {
			continue
		}
		for _, n := range e.Needs() {
			if seen[n] {
				continue
			}
			seen[n] = true
			jobs = append(jobs, n)
		}
	}

	// Count only jobs not already memoised toward the "[k/n]" total.
	s.mu.Lock()
	fresh := jobs[:0]
	for _, j := range jobs {
		if j.trace {
			if _, ok := s.traces[j.bench]; ok {
				continue
			}
		} else if _, ok := s.sims[simKey{j.bench, j.mode, j.v}]; ok {
			continue
		}
		fresh = append(fresh, j)
	}
	fresh = fuseTraces(fresh)
	s.planned = s.ran + len(fresh)
	s.latchLocked()
	s.mu.Unlock()
	if len(fresh) == 0 {
		return ctx.Err()
	}

	if workers <= 0 {
		workers = s.opts.Parallel
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fresh) {
		workers = len(fresh)
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	ch := make(chan need)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				var err error
				if j.trace {
					_, err = s.traceCtx(ctx, j.bench)
				} else {
					_, err = s.resultCtx(ctx, j.bench, j.mode, j.v)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
feed:
	for _, j := range fresh {
		select {
		case ch <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// fuseTraces folds each {bench, PAC, default} simulation job into the
// trace capture of the same benchmark when both are wanted: the capture
// runs that simulation and memoises its result too. The fused job takes
// the earlier of the two positions; job order only shapes scheduling.
func fuseTraces(jobs []need) []need {
	traced := make(map[string]bool)
	for _, j := range jobs {
		if j.trace {
			traced[j.bench] = true
		}
	}
	seen := make(map[need]bool, len(jobs))
	out := jobs[:0]
	for _, j := range jobs {
		if !j.trace && j.mode == coalesce.ModePAC && j.v == varDefault && traced[j.bench] {
			j = traceNeed(j.bench)
		}
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// Completed returns how many simulation runs the session has executed
// (memo hits excluded); a trace capture fused into its PAC simulation is
// one run.
func (s *Session) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ran
}

func totalCores(procs []sim.ProcSpec) int {
	n := 0
	for _, p := range procs {
		n += p.Cores
	}
	return n
}

// partnerOf pairs each benchmark with the next one in the canonical list
// for the multiprocessing experiment, mirroring the paper's co-run of
// "different tests with diverse memory access patterns".
func partnerOf(bench string) string {
	names := workload.Names()
	for i, n := range names {
		if n == bench {
			return names[(i+1)%len(names)]
		}
	}
	return names[0]
}
