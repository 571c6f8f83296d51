package gateway

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepFanOutReachesEveryShard pins the fan-out order: the first
// SweepConcurrency cells of a sweep must not all land on one backend
// while the other sits idle. Both stub backends hold every simulate
// until released; once the fan-out has SweepConcurrency requests in
// flight, each backend must hold at least one of them.
func TestSweepFanOutReachesEveryShard(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	// Runs before the stubs' cleanup closes them, so a failing assert
	// never leaves a held handler blocking the shutdown.
	defer releaseAll()

	var held [2]atomic.Int32
	backends := make([]string, len(held))
	for i := range held {
		n := &held[i]
		stub := newStubBackend(t, func() bool { return true }, func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"id": "j1", "status": "done", "result": {"result": {"Cycles": 1}}}`))
		})
		backends[i] = stub.URL
	}
	g, front := testGateway(t, backends, nil)

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"modes": ["none", "dmc", "pac", "sortnet", "rowbuf"]}`))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()

	inFlight := int32(g.cfg.SweepConcurrency)
	waitFor(t, 10*time.Second, "the sweep to fill its fan-out window", func() bool {
		return held[0].Load()+held[1].Load() >= inFlight
	})
	h0, h1 := held[0].Load(), held[1].Load()
	if h0 == 0 || h1 == 0 {
		t.Fatalf("first %d sweep cells held %d/%d across the two backends; one shard sat idle",
			inFlight, h0, h1)
	}

	releaseAll()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("sweep answered %d after release, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not finish after release")
	}
	if got := held[0].Load() + held[1].Load(); got != 14*5 {
		t.Fatalf("backends saw %d simulate requests, want %d (14 benchmarks x 5 modes)", got, 14*5)
	}
}
