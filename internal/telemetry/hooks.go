package telemetry

import (
	"sync"
	"time"
)

// Kind classifies one telemetry event.
type Kind int

const (
	// KindSimStarted fires when a simulation begins executing.
	KindSimStarted Kind = iota
	// KindSimCompleted fires when a simulation finishes successfully;
	// the event carries the wall time and simulated cycle count.
	KindSimCompleted
	// KindSimCancelled fires when a simulation aborts on context
	// cancellation (its last waiter disconnected or a timeout hit).
	KindSimCancelled
	// KindSimFailed fires when a simulation aborts on an internal error
	// rather than cancellation — today that is the MaxCycles wedge
	// guard. Together with the two kinds above it completes the
	// "exactly one terminal event per run" contract of sim.RunContext.
	KindSimFailed
	// KindMemoHit fires when a session recall is served from the memo.
	KindMemoHit
	// KindMemoMiss fires when a session recall starts a fresh run.
	KindMemoMiss
	// KindQueueDepth reports the job queue depth after a change.
	KindQueueDepth
	// KindCacheStats carries a finished run's cache-hierarchy counters.
	KindCacheStats
)

// String names the kind for logs and tests.
func (k Kind) String() string {
	switch k {
	case KindSimStarted:
		return "sim-started"
	case KindSimCompleted:
		return "sim-completed"
	case KindSimCancelled:
		return "sim-cancelled"
	case KindSimFailed:
		return "sim-failed"
	case KindMemoHit:
		return "memo-hit"
	case KindMemoMiss:
		return "memo-miss"
	case KindQueueDepth:
		return "queue-depth"
	case KindCacheStats:
		return "cache-stats"
	default:
		return "unknown"
	}
}

// Event is one recorded occurrence. Only the fields relevant to the kind
// are set; the rest stay zero.
type Event struct {
	Kind Kind
	// Bench labels the workload ("GS", "STREAM+GS", or "trace:GS" for
	// trace captures); empty for events without a workload.
	Bench string
	// Mode is the coalescing mode label of simulation events.
	Mode string
	// Wall is the wall-clock duration of a completed simulation.
	Wall time.Duration
	// Cycles is the simulated cycle count of a completed simulation.
	Cycles int64
	// Skipped is the number of those cycles the event kernel advanced
	// over without stepping the machine (0 under the reference stepper).
	Skipped int64
	// Depth is the queue depth of a KindQueueDepth event.
	Depth int
	// Accesses and LLCMisses are the hierarchy counters of a
	// KindCacheStats event.
	Accesses, LLCMisses int64
	// FaultsCRC, FaultsStall and FaultsPoison count the injected
	// transaction-layer faults of a terminal simulation event (link
	// CRC replays, vault ECC-scrub stalls, poisoned responses); all
	// zero when fault injection is disabled.
	FaultsCRC, FaultsStall, FaultsPoison int64
	// MachineWarm reports, on a terminal simulation event, whether the
	// run checked its component graph out of the Scratch machine cache
	// (hit) or had to build it fresh (miss — including cache-ineligible
	// faulted and caller-generator runs).
	MachineWarm bool
	// ReplaySkips is 1 on the first terminal event after a machine's
	// workload record-replay was skipped for exceeding the recording
	// budget (the cache silently degrading to generator re-runs is a
	// capped behaviour, and caps are never silent).
	ReplaySkips int64
}

// Hooks is the cheap event sink the instrumented packages (sim, cache,
// experiments, server) record into. Install the observer by assigning
// Observer before the hooks' first Emit and never reassigning it: like
// experiments.Session.Progress, the hooks latch the observer on first
// use (later writes are ignored) and serialize every invocation under an
// internal mutex, so the observer itself needs no locking. A nil *Hooks
// is valid and drops every event, keeping call sites unconditional.
//
// The observer must not call Emit on the same hooks (it would deadlock
// on the serialization mutex).
type Hooks struct {
	// Observer receives every event; set before first use.
	Observer func(Event)

	mu      sync.Mutex
	latched bool
	fn      func(Event)
}

// Emit records one event: the first call latches Observer, and every
// call runs the latched observer under the serialization lock.
func (h *Hooks) Emit(ev Event) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.latched {
		h.latched = true
		h.fn = h.Observer
	}
	if h.fn != nil {
		h.fn(ev)
	}
}

// Canonical metric names recorded by InstrumentedHooks; DESIGN.md §6
// documents each.
const (
	MetricSimsStarted    = "pac_sims_started_total"
	MetricSimsCompleted  = "pac_sims_completed_total"
	MetricSimsCancelled  = "pac_sims_cancelled_total"
	MetricSimsFailed     = "pac_sims_failed_total"
	MetricSimWallSeconds = "pac_sim_wall_seconds"
	MetricSimWallByBench = "pac_sim_wall_seconds_total"
	MetricSimCycles      = "pac_sim_cycles_total"
	MetricSimSkipped     = "pac_sim_cycles_skipped_total"
	MetricMemoHits       = "pac_session_memo_hits_total"
	MetricMemoMisses     = "pac_session_memo_misses_total"
	MetricQueueDepth     = "pac_jobs_queue_depth"
	MetricCacheAccesses  = "pac_cache_accesses_total"
	MetricCacheMisses    = "pac_cache_llc_misses_total"
	MetricFaultsInjected = "pac_faults_injected_total"
	MetricLinkRetries    = "pac_link_retries_total"
	MetricMachineHits    = "pac_machine_cache_hits_total"
	MetricMachineMisses  = "pac_machine_cache_misses_total"
	MetricReplaySkips    = "pac_replay_budget_skips_total"
)

// InstrumentedHooks builds hooks whose observer translates events into
// the canonical pac_* metrics of the registry: simulation lifecycle
// counters, a fixed-bucket wall-time histogram plus per-benchmark wall
// counters, session memo hit/miss counters, the job queue-depth gauge,
// and aggregate cache-hierarchy counters.
func InstrumentedHooks(r *Registry) *Hooks {
	return &Hooks{Observer: func(ev Event) {
		switch ev.Kind {
		case KindSimStarted:
			r.Counter(MetricSimsStarted, "Simulations started.").Inc()
		case KindSimCompleted:
			r.Counter(MetricSimsCompleted, "Simulations completed.").Inc()
			r.Histogram(MetricSimWallSeconds, "Simulation wall time.", DefaultDurationBuckets()).
				Observe(ev.Wall.Seconds())
			r.Counter(MetricSimWallByBench, "Per-benchmark simulation wall time.",
				"bench", ev.Bench).Add(ev.Wall.Seconds())
			r.Counter(MetricSimCycles, "Simulated cycles.").Add(float64(ev.Cycles))
			r.Counter(MetricSimSkipped, "Simulated cycles skipped by the event kernel.").
				Add(float64(ev.Skipped))
			recordFaults(r, ev)
			recordMachine(r, ev)
		case KindSimCancelled:
			r.Counter(MetricSimsCancelled, "Simulations cancelled mid-run.").Inc()
			recordFaults(r, ev)
			recordMachine(r, ev)
		case KindSimFailed:
			r.Counter(MetricSimsFailed, "Simulations aborted on an internal error.").Inc()
			recordFaults(r, ev)
			recordMachine(r, ev)
		case KindMemoHit:
			r.Counter(MetricMemoHits, "Session memo lookups served from cache.").Inc()
		case KindMemoMiss:
			r.Counter(MetricMemoMisses, "Session memo lookups that started a fresh run.").Inc()
		case KindQueueDepth:
			r.Gauge(MetricQueueDepth, "Jobs waiting in the pacd queue.").Set(float64(ev.Depth))
		case KindCacheStats:
			r.Counter(MetricCacheAccesses, "Cache-hierarchy accesses across finished runs.",
				"bench", ev.Bench).Add(float64(ev.Accesses))
			r.Counter(MetricCacheMisses, "LLC misses across finished runs.",
				"bench", ev.Bench).Add(float64(ev.LLCMisses))
		}
	}}
}

// recordMachine translates a terminal simulation event's machine-cache
// outcome into the warm-path counters: one hit or miss per run, plus the
// once-per-machine record-replay budget skip.
func recordMachine(r *Registry, ev Event) {
	if ev.MachineWarm {
		r.Counter(MetricMachineHits, "Runs served by a parked machine from the Scratch cache.").Inc()
	} else {
		r.Counter(MetricMachineMisses, "Runs that built their machine fresh.").Inc()
	}
	if ev.ReplaySkips > 0 {
		r.Counter(MetricReplaySkips, "Machines whose workload record-replay was skipped for exceeding the recording budget.").
			Add(float64(ev.ReplaySkips))
	}
}

// recordFaults translates a terminal simulation event's fault counters
// into the injection metrics. Counters are created lazily only when a
// run actually injected that fault kind, so fault-free deployments
// expose no fault series.
func recordFaults(r *Registry, ev Event) {
	if ev.FaultsCRC > 0 {
		r.Counter(MetricFaultsInjected, "Injected HMC transaction-layer faults.",
			"kind", "link-crc").Add(float64(ev.FaultsCRC))
		r.Counter(MetricLinkRetries, "Link retry-buffer replays after CRC errors.").
			Add(float64(ev.FaultsCRC))
	}
	if ev.FaultsStall > 0 {
		r.Counter(MetricFaultsInjected, "Injected HMC transaction-layer faults.",
			"kind", "vault-stall").Add(float64(ev.FaultsStall))
	}
	if ev.FaultsPoison > 0 {
		r.Counter(MetricFaultsInjected, "Injected HMC transaction-layer faults.",
			"kind", "poison").Add(float64(ev.FaultsPoison))
	}
}
