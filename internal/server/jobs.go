package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether the status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// errBusy is returned by submit when the bounded queue is full; the API
// layer maps it to 429 + Retry-After.
var errBusy = errors.New("server: job queue full")

// errDraining is returned after drain started; the API maps it to 503.
var errDraining = errors.New("server: draining, not accepting jobs")

// maxProgressLines bounds per-job progress retention; older lines are
// dropped from the front (SSE subscribers still see every line live).
const maxProgressLines = 256

// jobMeta carries a job's profiling attributes: bench and mode feed the
// pprof labels on the executing goroutine (empty for experiments, which
// span many configurations).
type jobMeta struct {
	bench string
	mode  string
}

// Job is one queued unit of work: a simulation or an experiment run.
type Job struct {
	id   string
	kind string
	// node is the owning daemon's NodeID ("" outside a fleet); surfaced
	// in job views so gateway-merged listings attribute jobs to shards.
	node string
	// meta tags the job for pprof attribution; immutable after submit.
	meta jobMeta

	run func(ctx context.Context) (any, error)

	// payload is the canonical request body journaled to the WAL (nil
	// without a journal); orphaned-job views expose it so a gateway can
	// re-dispatch the work verbatim.
	payload []byte
	// recovered marks a job re-enqueued from the WAL at boot replay; it
	// runs under its original ID and is reported as "orphaned" until it
	// reaches a terminal state.
	recovered bool

	// clientCancel is closed (once) when DELETE /v1/jobs/{id} aborts
	// the job, distinguishing a user cancellation from a watchdog kill:
	// the former is terminal, the latter is retryable.
	clientCancel chan struct{}
	cancelOnce   sync.Once

	mu       sync.Mutex
	status   Status
	err      string
	result   json.RawMessage
	progress []string
	dropped  int // progress lines evicted by the retention cap
	subs     []chan progressEvent
	done     chan struct{}
	cancel   context.CancelFunc // cancels the running attempt's context
	attempts int                // execution attempts so far (1 = no retries yet)
	created  time.Time
	started  time.Time
	finished time.Time
}

// abortedByClient reports whether DELETE cancelled the job.
func (j *Job) abortedByClient() bool {
	select {
	case <-j.clientCancel:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// isOrphaned reports a WAL-recovered job that has not yet reached a
// terminal state — the set a gateway reconciles after a worker restart.
func (j *Job) isOrphaned() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered && !j.status.terminal()
}

// progressEvent is one progress line with its absolute 1-based sequence
// number. IDs survive retention trims (id = dropped + slice position),
// so an SSE client can resume a severed stream with Last-Event-ID and
// receive exactly the lines it missed.
type progressEvent struct {
	ID   int
	Line string
}

// addProgress appends one progress line and fans it out to subscribers.
func (j *Job) addProgress(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.progress = append(j.progress, line)
	ev := progressEvent{ID: j.dropped + len(j.progress), Line: line}
	if len(j.progress) > maxProgressLines {
		j.dropped += len(j.progress) - maxProgressLines
		j.progress = j.progress[len(j.progress)-maxProgressLines:]
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than block the job
		}
	}
}

// subscribe registers a progress listener, replaying the retained lines
// with IDs greater than after (0 replays everything retained); the
// channel is closed when the job finishes. The returned cancel must be
// called when the listener leaves.
func (j *Job) subscribe(after int) (<-chan progressEvent, func()) {
	ch := make(chan progressEvent, maxProgressLines)
	j.mu.Lock()
	var replay []progressEvent
	for i, line := range j.progress {
		if id := j.dropped + i + 1; id > after {
			replay = append(replay, progressEvent{ID: id, Line: line})
		}
	}
	closed := j.status.terminal()
	if !closed {
		j.subs = append(j.subs, ch)
	}
	j.mu.Unlock()
	for _, ev := range replay {
		ch <- ev
	}
	if closed {
		close(ch)
		return ch, func() {}
	}
	return ch, func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
}

// finish moves the job to a terminal state, closing done and every
// subscriber channel.
func (j *Job) finish(status Status, result json.RawMessage, err error) {
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	if err != nil {
		j.err = err.Error()
	}
	j.finished = time.Now()
	subs := j.subs
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// jobView is the JSON representation of a job.
type jobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Node     string          `json:"node,omitempty"`
	Status   Status          `json:"status"`
	Error    string          `json:"error,omitempty"`
	Progress []string        `json:"progress,omitempty"`
	Dropped  int             `json:"progressDropped,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// Recovered marks a job the WAL re-enqueued at boot under its
	// original ID; with a non-terminal status it is "orphaned" (GET
	// /v1/jobs?state=orphaned), the set a gateway reconciles after a
	// worker restart.
	Recovered bool `json:"recovered,omitempty"`
	// Request is the journaled request body (detailed views only), so a
	// gateway can re-dispatch an orphaned job verbatim.
	Request    json.RawMessage `json:"request,omitempty"`
	Attempts   int             `json:"attempts,omitempty"`
	CreatedAt  time.Time       `json:"createdAt"`
	StartedAt  *time.Time      `json:"startedAt,omitempty"`
	FinishedAt *time.Time      `json:"finishedAt,omitempty"`
}

// view snapshots the job; withResult controls whether the (potentially
// large) result payload is included.
func (j *Job) view(withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Kind:      j.kind,
		Node:      j.node,
		Status:    j.status,
		Error:     j.err,
		Progress:  append([]string(nil), j.progress...),
		Dropped:   j.dropped,
		Recovered: j.recovered,
		Attempts:  j.attempts,
		CreatedAt: j.created,
	}
	if withResult {
		v.Result = j.result
		if len(j.payload) > 0 {
			v.Request = json.RawMessage(j.payload)
		}
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// jobManager owns the bounded queue, the worker pool, and the job store.
type jobManager struct {
	hooks      *telemetry.Hooks
	reg        *telemetry.Registry
	jobTimeout time.Duration
	retain     int
	node       string // owning daemon's NodeID, stamped onto every job
	// maxRetries is how many times a failed attempt (error, watchdog
	// kill, or recovered panic) is re-run before the job fails for
	// good; 0 disables retries. retryBase seeds the exponential
	// backoff between attempts.
	maxRetries int
	retryBase  time.Duration
	// wal, when set, journals every accepted job before it is exposed
	// and records each lifecycle transition, so a crashed daemon's boot
	// replay can re-enqueue unfinished work under its original IDs.
	wal *wal.Log

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	// resubMu serializes resubmit's blocking queue sends against drain's
	// queue close: resubmit holds the read side across its send, drain
	// takes the write side before closing, so a boot replay racing a
	// shutdown can never send on a closed channel.
	resubMu sync.RWMutex
	wg      sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // insertion order, for retention eviction
	nextID    int
	accepting bool
	closing   sync.Once
}

func newJobManager(workers, depth int, jobTimeout time.Duration, retain, maxRetries int,
	retryBase time.Duration, node string, journal *wal.Log,
	hooks *telemetry.Hooks, reg *telemetry.Registry) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		hooks:      hooks,
		reg:        reg,
		jobTimeout: jobTimeout,
		retain:     retain,
		node:       node,
		maxRetries: maxRetries,
		retryBase:  retryBase,
		wal:        journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, depth),
		jobs:       make(map[string]*Job),
		accepting:  true,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// submit enqueues a job; errBusy when the queue is full, errDraining
// after drain started. payload is the canonical request body journaled
// to the WAL (and surfaced on orphaned-job views); nil is fine for
// unjournaled managers. meta tags the job for pprof attribution.
//
// The submit record is written (and synced) before the job is queued,
// outside m.mu: an idle worker can pick the job up the instant it is
// queued and journal its run and done, and those records only retire a
// job whose submit precedes them. A job that cannot then be queued is
// retired with a cancel record.
func (m *jobManager) submit(kind string, payload []byte, meta jobMeta, run func(ctx context.Context) (any, error)) (*Job, error) {
	m.mu.Lock()
	if !m.accepting {
		m.mu.Unlock()
		return nil, errDraining
	}
	m.nextID++
	// Fleet daemons prefix their node name so job IDs are unique across
	// a gateway's whole backend set, making gateway job lookups exact.
	id := fmt.Sprintf("j%06d", m.nextID)
	if m.node != "" {
		id = m.node + "-" + id
	}
	m.mu.Unlock()
	j := &Job{
		id:           id,
		kind:         kind,
		node:         m.node,
		meta:         meta,
		run:          run,
		payload:      payload,
		status:       StatusQueued,
		done:         make(chan struct{}),
		clientCancel: make(chan struct{}),
		created:      time.Now(),
	}
	if m.wal != nil {
		if err := m.wal.Submit(id, kind, payload); err != nil {
			// A job the journal cannot make durable is never
			// acknowledged.
			m.reg.Counter("pac_wal_journal_errors_total",
				"WAL appends that failed.").Inc()
			return nil, fmt.Errorf("server: journaling job: %w", err)
		}
	}
	m.mu.Lock()
	err := errDraining
	if m.accepting {
		select {
		case m.queue <- j:
			err = nil
		default:
			err = errBusy
		}
	}
	if err != nil {
		m.mu.Unlock()
		m.journal(m.wal.Cancel, id)
		if err == errBusy {
			m.reg.Counter("pac_jobs_rejected_total", "Jobs rejected with 429 on a full queue.").Inc()
		}
		return nil, err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()
	m.reg.Counter("pac_jobs_submitted_total", "Jobs accepted into the queue.", "kind", kind).Inc()
	m.noteDepth()
	return j, nil
}

// resubmit re-enqueues a journaled job under its original ID during
// boot replay: no new submit record is written (the journal already has
// one), the ID counter is fast-forwarded past the recovered ID, and the
// queue send blocks — the workers are live and draining, so recovery
// applies backpressure instead of dropping work. Returns nil when the
// manager is already draining.
func (m *jobManager) resubmit(id, kind string, payload []byte, meta jobMeta, run func(ctx context.Context) (any, error)) *Job {
	m.resubMu.RLock()
	defer m.resubMu.RUnlock()
	m.mu.Lock()
	if !m.accepting {
		m.mu.Unlock()
		return nil
	}
	if _, exists := m.jobs[id]; exists {
		m.mu.Unlock()
		return nil
	}
	m.bumpNextIDLocked(id)
	j := &Job{
		id:           id,
		kind:         kind,
		node:         m.node,
		meta:         meta,
		run:          run,
		payload:      payload,
		recovered:    true,
		status:       StatusQueued,
		done:         make(chan struct{}),
		clientCancel: make(chan struct{}),
		created:      time.Now(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.queue <- j
	m.reg.Counter("pac_jobs_recovered_total",
		"Journaled jobs re-enqueued under their original IDs at boot replay.", "kind", kind).Inc()
	m.noteDepth()
	return j
}

// bumpNextIDLocked fast-forwards the ID counter past a recovered job's
// ID, so post-recovery submissions never collide with replayed ones.
func (m *jobManager) bumpNextIDLocked(id string) {
	if m.node != "" {
		id = strings.TrimPrefix(id, m.node+"-")
	}
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > m.nextID {
		m.nextID = n
	}
}

// journal applies one WAL lifecycle append. Errors after acceptance are
// counted but never fail the job: once the submit record is durable the
// journal is an at-least-once floor, not a gate — a lost terminal record
// merely means one extra (memo-deduplicated) replay next boot.
func (m *jobManager) journal(op func(id string) error, id string) {
	if m.wal == nil {
		return
	}
	if err := op(id); err != nil {
		m.reg.Counter("pac_wal_journal_errors_total", "WAL appends that failed.").Inc()
	}
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
func (m *jobManager) evictLocked() {
	if m.retain <= 0 || len(m.jobs) <= m.retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if len(m.jobs) > m.retain && j != nil && j.Status().terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// get finds a job by ID.
func (m *jobManager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every retained job in submission order.
func (m *jobManager) list() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// cancelJob aborts a queued or running job.
func (m *jobManager) cancelJob(j *Job) {
	j.mu.Lock()
	switch {
	case j.status == StatusQueued:
		// Finish directly; the worker skips terminal jobs on pickup.
		j.mu.Unlock()
		j.finish(StatusCancelled, nil, context.Canceled)
		m.noteFinished(j, StatusCancelled)
		m.noteDepth()
		return
	case j.status == StatusRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		// Mark the cancellation as client-initiated before aborting the
		// attempt, so the worker neither retries nor counts it as a
		// watchdog kill. The close also interrupts a backoff sleep.
		j.cancelOnce.Do(func() { close(j.clientCancel) })
		cancel()
		return
	}
	j.mu.Unlock()
}

// worker executes jobs in arrival order until the queue closes.
func (m *jobManager) worker() {
	defer m.wg.Done()
	running := m.reg.Gauge("pac_jobs_running", "Jobs currently executing.")
	for j := range m.queue {
		m.noteDepth()
		j.mu.Lock()
		if j.status != StatusQueued {
			j.mu.Unlock()
			continue
		}
		j.status = StatusRunning
		j.started = time.Now()
		j.mu.Unlock()
		m.journal(m.walRunning, j.id)
		m.execute(j, running)
	}
}

// execute drives one job through up to 1+maxRetries attempts. Every
// attempt runs under its own wall-clock watchdog deadline (jobTimeout):
// a wedged simulation is cancelled through the context plumbing, counted
// in pac_job_watchdog_kills_total, and — like an internal error or a
// recovered panic — retried after an exponential backoff with jitter.
// A client cancellation (DELETE) or daemon drain ends the job
// immediately with StatusCancelled, never a retry.
func (m *jobManager) execute(j *Job, running *telemetry.Gauge) {
	var result any
	var err error
	for attempt := 0; ; attempt++ {
		var ctx context.Context
		var cancel context.CancelFunc
		if m.jobTimeout > 0 {
			ctx, cancel = context.WithTimeout(m.baseCtx, m.jobTimeout)
		} else {
			ctx, cancel = context.WithCancel(m.baseCtx)
		}
		j.mu.Lock()
		j.cancel = cancel
		j.attempts = attempt + 1
		j.mu.Unlock()

		running.Inc()
		// Label the attempt's goroutine (and everything it spawns) so
		// -pprof profiles attribute hot time per workload.
		pprof.Do(ctx, pprof.Labels(
			"job", j.kind, "bench", j.meta.bench, "mode", j.meta.mode,
		), func(ctx context.Context) {
			result, err = m.runAttempt(ctx, j)
		})
		running.Dec()
		watchdogKill := err != nil && ctx.Err() == context.DeadlineExceeded &&
			m.baseCtx.Err() == nil && !j.abortedByClient()
		cancel()

		if err == nil {
			break
		}
		if watchdogKill {
			m.reg.Counter("pac_job_watchdog_kills_total",
				"Job attempts cancelled by the per-job watchdog deadline.",
				"kind", j.kind).Inc()
			err = fmt.Errorf("watchdog: attempt exceeded job deadline %s: %v", m.jobTimeout, err)
		}
		if j.abortedByClient() || m.baseCtx.Err() != nil {
			// Client cancellation and daemon drain are terminal; the
			// classification below maps them to StatusCancelled.
			break
		}
		if attempt >= m.maxRetries {
			if m.maxRetries > 0 {
				err = fmt.Errorf("failed after %d attempts: %w", attempt+1, err)
			}
			break
		}
		delay := m.backoff(attempt)
		j.addProgress(fmt.Sprintf("attempt %d/%d failed: %v; retrying in %s",
			attempt+1, m.maxRetries+1, err, delay.Round(time.Millisecond)))
		m.reg.Counter("pac_job_retries_total", "Job attempts retried after a failure.",
			"kind", j.kind).Inc()
		if !m.sleep(delay, j) {
			break // drain or client cancel interrupted the backoff
		}
	}

	var status Status
	var payload json.RawMessage
	switch {
	case err == nil:
		status = StatusDone
		if result != nil {
			if payload, err = json.Marshal(result); err != nil {
				status = StatusFailed
				payload = nil
			}
		}
	case j.abortedByClient() || m.baseCtx.Err() != nil || isCancelled(err):
		status = StatusCancelled
	default:
		status = StatusFailed
	}
	j.finish(status, payload, err)
	m.noteFinished(j, status)
}

// runAttempt runs the job body once, converting a panic into an error
// attributed to the job so one poisoned run cannot take down the worker
// pool.
func (m *jobManager) runAttempt(ctx context.Context, j *Job) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			m.reg.Counter("pac_job_panics_total", "Job attempts that panicked and were recovered.",
				"kind", j.kind).Inc()
			err = fmt.Errorf("job %s (%s) panicked: %v\n%s", j.id, j.kind, p, debug.Stack())
		}
	}()
	return j.run(ctx)
}

// backoff returns the jittered exponential delay before retry attempt+1:
// base<<attempt, capped at 30s, with uniform jitter over [d/2, d].
func (m *jobManager) backoff(attempt int) time.Duration {
	base := m.retryBase
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	d := base << uint(attempt)
	if max := 30 * time.Second; d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleep waits out a backoff delay, returning false if the daemon drain
// or a client cancellation interrupted it.
func (m *jobManager) sleep(d time.Duration, j *Job) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-m.baseCtx.Done():
		return false
	case <-j.clientCancel:
		return false
	}
}

func isCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (m *jobManager) noteFinished(j *Job, status Status) {
	if m.wal != nil {
		switch status {
		case StatusDone:
			m.journal(m.wal.Done, j.id)
		case StatusFailed:
			m.journal(m.wal.Fail, j.id)
		case StatusCancelled:
			m.journal(m.wal.Cancel, j.id)
		}
	}
	m.reg.Counter("pac_jobs_finished_total", "Jobs finished, by kind and status.",
		"kind", j.kind, "status", string(status)).Inc()
}

// walRunning adapts wal.Running to the journal helper's signature.
func (m *jobManager) walRunning(id string) error { return m.wal.Running(id) }

// noteDepth records the queue depth through the telemetry hooks (the
// KindQueueDepth event keeps the pac_jobs_queue_depth gauge current).
func (m *jobManager) noteDepth() {
	m.hooks.Emit(telemetry.Event{Kind: telemetry.KindQueueDepth, Depth: len(m.queue)})
}

// broadcastProgress fans one session progress line out to every running
// job — simulations are shared singleflight work, so every job waiting
// on the pool legitimately observes the same completions.
func (m *jobManager) broadcastProgress(line string) {
	for _, j := range m.list() {
		if j.Status() == StatusRunning {
			j.addProgress(line)
		}
	}
}

// drain stops accepting jobs, closes the queue, and waits for the
// workers to finish the backlog. When ctx expires first, the remaining
// jobs are cancelled and drain waits for them to unwind.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.accepting = false
	m.mu.Unlock()
	m.resubMu.Lock()
	m.closing.Do(func() { close(m.queue) })
	m.resubMu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		m.baseCancel() // abort in-flight jobs
		<-finished
		return fmt.Errorf("server: drain timed out, %d in-flight jobs cancelled: %w",
			len(m.queue), ctx.Err())
	}
}
