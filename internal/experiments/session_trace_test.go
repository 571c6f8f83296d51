package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/pacsim/pac/internal/coalesce"
	"github.com/pacsim/pac/internal/mem"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/workload"
)

// standaloneTrace captures bench's trace through the fallback: the PAC
// result is memoised first, so trace() must run a separate capture.
func standaloneTrace(t *testing.T, s *Session, bench string) ([]mem.Request, *sim.Result) {
	t.Helper()
	res, err := s.result(bench, coalesce.ModePAC, varDefault)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Completed()
	reqs, err := s.trace(bench)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Completed() - before; got != 1 {
		t.Fatalf("%s: trace after a memoised result ran %d simulations, want 1", bench, got)
	}
	return reqs, res
}

// TestPrecomputeFusesTraces runs every experiment's needs and checks
// each trace capture doubled as its benchmark's {PAC, default}
// simulation: one run fewer per traced benchmark, and every fused trace
// and result equal to a stand-alone capture request for request.
func TestPrecomputeFusesTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment working set")
	}
	opts := testOptions()
	opts.AccessesPerCore = 1_000

	needs := make(map[need]bool)
	for _, e := range All() {
		if e.Needs != nil {
			for _, n := range e.Needs() {
				needs[n] = true
			}
		}
	}
	fusable := 0
	for n := range needs {
		if n.trace && needs[simNeed(n.bench, coalesce.ModePAC, varDefault)] {
			fusable++
		}
	}
	if fusable != len(workload.Names()) {
		t.Fatalf("%d traces share a needed PAC simulation, want one per benchmark (%d)", fusable, len(workload.Names()))
	}

	var mu sync.Mutex
	sims := 0
	s := NewSession(opts)
	s.Hooks = &telemetry.Hooks{Observer: func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindSimCompleted {
			mu.Lock()
			sims++
			mu.Unlock()
		}
	}}
	if err := s.Precompute(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if want := len(needs) - fusable; s.Completed() != want || sims != want {
		t.Fatalf("Precompute completed %d runs (%d simulations), want %d: %d needs less %d fused",
			s.Completed(), sims, want, len(needs), fusable)
	}
	t.Logf("%d needs ran as %d simulations", len(needs), s.Completed())

	ref := NewSession(opts)
	for _, b := range workload.Names() {
		fused, err := s.trace(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.result(b, coalesce.ModePAC, varDefault)
		if err != nil {
			t.Fatal(err)
		}
		wantReqs, wantRes := standaloneTrace(t, ref, b)
		if len(fused) == 0 || !reflect.DeepEqual(fused, wantReqs) {
			t.Errorf("%s: fused trace (%d requests) differs from a stand-alone capture (%d)", b, len(fused), len(wantReqs))
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: fused run's result differs from a plain run's", b)
		}
	}
}

// TestTraceFallbackOnCheckpointResume: when the fused run resumes from a
// stored checkpoint, its sink saw only the tail of the stream, so the
// session falls back to a stand-alone capture. The result comes from the
// resumed run; the trace still equals an uninterrupted capture.
func TestTraceFallbackOnCheckpointResume(t *testing.T) {
	const bench = "GS"
	opts := testOptions()
	opts.AccessesPerCore = 1_500
	wantReqs, wantRes := standaloneTrace(t, NewSession(opts), bench)

	var cks []*sim.Checkpoint
	rec := NewSession(opts)
	rec.Checkpoints = &CheckpointPolicy{
		Every: wantRes.Cycles / 4,
		Sink:  func(_ string, _ coalesce.Mode, ck *sim.Checkpoint) { cks = append(cks, ck) },
	}
	if _, err := rec.result(bench, coalesce.ModePAC, varDefault); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	stored := cks[len(cks)/2]

	s := NewSession(opts)
	var lines []string
	s.Progress = func(line string) { lines = append(lines, line) }
	s.Checkpoints = &CheckpointPolicy{
		Load: func(string, coalesce.Mode) *sim.Checkpoint { return stored },
		Drop: func(string, coalesce.Mode) { stored = nil },
	}
	reqs, err := s.trace(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reqs, wantReqs) {
		t.Errorf("trace after a resumed run has %d requests, want the full %d", len(reqs), len(wantReqs))
	}
	res, err := s.result(bench, coalesce.ModePAC, varDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Error("resumed result differs from an uninterrupted run")
	}
	joined := strings.Join(lines, "\n")
	if s.Completed() != 2 || !strings.Contains(joined, "resumed "+bench) || !strings.Contains(joined, "traced "+bench) {
		t.Errorf("want a resumed run and a stand-alone capture, got %d runs:\n%s", s.Completed(), joined)
	}
}
