package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false},
		{40, 75, true},
		{49, 75, true},
		{50, 80, true},
		{99, 80, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{499, 95, true},
		{500, 98, true},
		{999, 98, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1000000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond", tc.n, got, minBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 1.0 / 3: 2} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(a, b int) *span { return &span{start: at(a), end: at(b)} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for name, tc := range map[string]struct {
		kids []*span
		want int
	}{
		"no children":         {nil, 100},
		"disjoint":            {[]*span{sp(10, 20), sp(30, 50)}, 70},
		"overlapping":         {[]*span{sp(10, 40), sp(30, 60), sp(50, 55)}, 50},
		"nested":              {[]*span{sp(10, 90), sp(20, 30)}, 20},
		"sticking out":        {[]*span{sp(-20, 10), sp(95, 130)}, 85},
		"outside":             {[]*span{sp(-20, -10), sp(100, 130)}, 100},
		"touching":            {[]*span{sp(10, 20), sp(20, 30)}, 80},
		"unsorted concurrent": {[]*span{sp(60, 80), sp(0, 30), sp(25, 65)}, 20},
	} {
		if got := selfTime(parent, tc.kids); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", name, got, tc.want)
		}
	}
}

func TestPlanMixDeterministic(t *testing.T) {
	owner := fleetOwner()
	a, b := planMix(7, 2000, owner), planMix(7, 2000, owner)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if c := planMix(8, 2000, owner); reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("different seeds gave the same operation stream")
	}
}

func TestPlanMixProportions(t *testing.T) {
	const n = 6000
	owner := fleetOwner()
	p := planMix(3, n, owner)
	if len(p.ops) != n {
		t.Fatalf("%d ops, want %d", len(p.ops), n)
	}
	count := map[string]int{}
	seenCold := map[int]bool{}
	missAt := map[int]int{}
	for i, op := range p.ops {
		count[op.path]++
		switch op.path {
		case pathMiss:
			if seenCold[op.key] {
				t.Fatalf("op %d: miss key %d used twice", i, op.key)
			}
			seenCold[op.key] = true
			missAt[op.key] = i
		case pathDisk:
			at, ok := missAt[op.key]
			if ok && i-at <= diskDistance {
				t.Fatalf("op %d revisits the miss of op %d too soon", i, at)
			}
			if !ok {
				t.Fatalf("op %d: disk revisit of key %d that no earlier miss simulated", i, op.key)
			}
			missAt[op.key] = -1 << 30 // each cold key is revisited once
		case pathPeer:
			if !contains(p.peer, op.key) {
				t.Fatalf("op %d: peer key %d was not placed in set-up", i, op.key)
			}
		case pathMemo:
			if !contains(p.hot, op.key) {
				t.Fatalf("op %d: memo key %d is not hot", i, op.key)
			}
		}
	}
	// Every block keeps its make-up, except that a disk slot with no
	// miss far enough back becomes a memo hit, which can only happen
	// early in the stream.
	blocks := n / mixBlockLen
	for _, path := range []string{pathMiss, pathPeer} {
		if want := blocks * mixBlock[path]; count[path] != want {
			t.Errorf("%s: %d ops, want %d", path, count[path], want)
		}
	}
	fallback := count[pathMemo] - blocks*mixBlock[pathMemo]
	if fallback < 0 || count[pathDisk]+fallback != blocks*mixBlock[pathDisk] {
		t.Errorf("memo %d and disk %d ops do not fill their slots", count[pathMemo], count[pathDisk])
	}
	if early := (diskDistance/mixBlockLen + 2) * mixBlock[pathDisk]; fallback > early {
		t.Errorf("%d disk slots fell back to memo, want at most the %d of the first blocks", fallback, early)
	}
	if len(p.peer) != count[pathPeer] || len(p.hot) != hotKeys {
		t.Errorf("set-up keys: %d peer, %d hot", len(p.peer), len(p.hot))
	}
	for _, k := range p.hot {
		if p.keys[k].Seed != p.keys[p.hot[0]].Seed {
			t.Error("hot keys do not share one seed")
		}
	}
	// Set-up simulates the same number of keys on each backend.
	for _, keys := range [][]int{p.hot, p.peer} {
		owned := make([]int, fleetBackends)
		for _, k := range keys {
			owned[owner(p.keys[k])]++
		}
		for b, got := range owned {
			if want := len(keys) / fleetBackends; got != want {
				t.Errorf("backend %d owns %d of %d set-up keys, want %d", b, got, len(keys), want)
			}
		}
	}
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/pacsim/pac/internal/sim.(*Runner).stepPAC":             "sim",
		"github.com/pacsim/pac/internal/cache.(*Cache).Access":             "cache",
		"github.com/pacsim/pac/internal/arena.(*Deque[go.shape.int]).Push": "arena",
		"github.com/pacsim/pac/internal/sim.runEvents[...]":                "sim",
		"github.com/pacsim/pac/internal/report.(*Table).WriteText":         "other",
		"net/http.(*conn).serve":                                           "net/http",
		"encoding/json.(*decodeState).object":                              "encoding/json",
		"runtime.mallocgc":                                                 "runtime",
		"runtime.gcBgMarkWorker":                                           "runtime",
		"runtime/internal/atomic.Load":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                     "runtime",
		"runtime._GC":        "runtime",
		"runtime._System":    "runtime",
		"gcWriteBarrier":     "runtime",
		"":                   "runtime",
		"syscall.Syscall6":   "other",
		"sync.(*Mutex).Lock": "other",
		"main.main":          "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink []byte

func TestCPUSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink = make([]byte, 1<<16) // allocation keeps the runtime busy
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples collected")
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %v", total)
	}
	for _, g := range append(cpuGroups, "other") {
		if _, ok := shares[g]; !ok {
			t.Errorf("group %s missing", g)
		}
	}
	if shares["runtime"] == 0 {
		t.Error("allocation-heavy loop shows no runtime samples")
	}
}

func TestSumExposition(t *testing.T) {
	in := `# HELP pac_store_hits_total Store hits.
# TYPE pac_store_hits_total counter
pac_store_hits_total 3
pac_cache_accesses_total{bench="GS"} 10
pac_cache_accesses_total{bench="IS"} 5.5
pac_sim_wall_seconds_bucket{le="0.1"} 2
pac_sim_wall_seconds_sum 0.25
pac_sim_wall_seconds_count 2
`
	got := map[string]float64{"pac_store_hits_total": 1}
	if err := sumExposition(got, strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pac_store_hits_total": 4, "pac_cache_accesses_total": 15.5,
		"pac_sim_wall_seconds_sum": 0.25, "pac_sim_wall_seconds_count": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	d := deltas(map[string]float64{"pac_store_hits_total": 1}, want)
	if d["pac_store_hits_total"] != 3 || d["pac_cache_accesses_total"] != 15.5 {
		t.Errorf("deltas = %v", d)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// the metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", bj.PerLayer, perLayer)
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(bj.Workloads), len(workloads))
	}
}
