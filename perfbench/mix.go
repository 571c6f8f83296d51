package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/workload"
)

// The cache paths of a simulate request, as X-Pac-Cache names them.
const (
	pathMemo = "memo"
	pathMiss = "miss"
	pathDisk = "disk"
	pathPeer = "peer"
)

var mixPaths = []string{pathMemo, pathMiss, pathDisk, pathPeer}

// mixBlock is the make-up of every block of mixBlockLen consecutive
// operations; the order within a block is shuffled by the seed. Set-up
// simulates one key per peer operation, so the peer share is the
// smallest that leaves a p90 tail with ten samples beyond it well
// inside a 15-second window (about 150 peer requests on two cores).
var mixBlock = map[string]int{pathMemo: 64, pathMiss: 20, pathDisk: 15, pathPeer: 1}

const (
	mixBlockLen = 100
	mixClients  = 2
	// mixOps bounds the operation stream. The window ends when the time
	// is up or the stream is exhausted; set-up places one peer key per
	// peer operation, so the bound also sizes set-up.
	mixOps = 16000
	// hotKeys is the memo path's hot set.
	hotKeys = 16
	// diskDistance is how many operations must separate a cold key's
	// miss from its disk revisit. Every miss, disk and peer operation
	// opens a new options-session on its owner, so by then the key's
	// session has long left the owner's LRU session pool (8 sessions).
	diskDistance = 200
	// mixExactMisses is how many of the window's first misses the exact
	// simulated counts of a traced run sum over.
	mixExactMisses = 20
)

// errWindowOver stops the closed loop when the window's time is up.
var errWindowOver = errors.New("window over")

var modeNames = []string{"none", "dmc", "pac", "sortnet", "rowbuf"}

// mixOp is one request of the stream.
type mixOp struct {
	path string // expected cache path
	key  int    // index into mixPlan.keys
}

// mixPlan is the whole input of a fleet-mix run, generated from the
// seed: the keys, which of them set-up simulates (and where), and the
// ordered operation stream.
type mixPlan struct {
	keys []server.SimulateRequest
	hot  []int // memo keys, simulated through the gateway in set-up
	peer []int // keys simulated in set-up on the non-owner backend only
	ops  []mixOp
}

// splitmix64 is a small, stable generator: the same seed gives the same
// stream on every Go version.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// planMix generates the fleet-mix input for a seed. owner tells which
// backend owns a request on the gateway's ring; the hot keys and the peer
// keys are drawn so that each backend owns the same number of them, and
// the peer keys cycle through the benchmarks and modes in a fixed order,
// so set-up does the same amount of simulation whatever the seed.
func planMix(seed uint64, nOps int, owner func(server.SimulateRequest) int) mixPlan {
	rng := splitmix64(seed)
	var p mixPlan
	benches := workload.Names()
	newKey := func() int {
		p.keys = append(p.keys, server.SimulateRequest{
			Benchmark: benches[rng.intn(len(benches))],
			Mode:      modeNames[rng.intn(len(modeNames))],
			Seed:      rng.next() | 1, // 0 would inherit the base seed
		})
		return len(p.keys) - 1
	}
	// The hot set shares one seed, and so one options-session per
	// owner, which the frequent memo hits keep resident.
	hotSeed := rng.next() | 1
	for len(p.hot) < hotKeys {
		k := newKey()
		p.keys[k].Seed = hotSeed
		if owner(p.keys[k]) == len(p.hot)%fleetBackends && !containsReq(p.keys, p.hot, p.keys[k]) {
			p.hot = append(p.hot, k)
		} else {
			p.keys = p.keys[:k]
		}
	}
	// A disk operation revisits the oldest miss at least diskDistance
	// operations back; until there is one, it asks for a hot key.
	type cold struct{ key, at int } // at: op index of the miss
	var colds []cold
	nextCold := 0
	block := make([]string, 0, mixBlockLen)
	for _, path := range mixPaths {
		for i := 0; i < mixBlock[path]; i++ {
			block = append(block, path)
		}
	}
	for len(p.ops) < nOps {
		for i := len(block) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		for _, path := range block {
			if len(p.ops) == nOps {
				break
			}
			i := len(p.ops)
			switch path {
			case pathMemo:
				p.ops = append(p.ops, mixOp{pathMemo, p.hot[rng.intn(len(p.hot))]})
			case pathMiss:
				k := newKey()
				colds = append(colds, cold{k, i})
				p.ops = append(p.ops, mixOp{pathMiss, k})
			case pathDisk:
				if nextCold < len(colds) && colds[nextCold].at < i-diskDistance {
					p.ops = append(p.ops, mixOp{pathDisk, colds[nextCold].key})
					nextCold++
				} else {
					p.ops = append(p.ops, mixOp{pathMemo, p.hot[rng.intn(len(p.hot))]})
				}
			case pathPeer:
				// Peer key j is owned by backend j%fleetBackends.
				j := len(p.peer) / fleetBackends
				req := server.SimulateRequest{
					Benchmark: benches[j%len(benches)],
					Mode:      modeNames[j/len(benches)%len(modeNames)],
					Seed:      rng.next() | 1,
				}
				for owner(req) != len(p.peer)%fleetBackends {
					req.Seed = rng.next() | 1
				}
				p.keys = append(p.keys, req)
				p.peer = append(p.peer, len(p.keys)-1)
				p.ops = append(p.ops, mixOp{pathPeer, len(p.keys) - 1})
			}
		}
	}
	return p
}

func containsReq(keys []server.SimulateRequest, idx []int, r server.SimulateRequest) bool {
	for _, i := range idx {
		if keys[i] == r {
			return true
		}
	}
	return false
}

// mixSetup is a booted fleet holding the set-up state of a plan.
type mixSetup struct {
	f *fleet
	// ref holds the digest of the compacted result of each key's first
	// (miss) run.
	ref map[int][32]byte
}

// setupMix boots a fleet, places every peer key on its non-owner
// backend by a request sent straight to that backend, as if the ring had
// changed after the result was computed, and then simulates the hot keys
// through the gateway.
func setupMix(ctx context.Context, p mixPlan, tr *tracer) (*mixSetup, error) {
	f, err := startFleet(ctx, false, tr)
	if err != nil {
		return nil, err
	}
	ms := &mixSetup{f: f, ref: map[int][32]byte{}}
	type job struct {
		key int
		url string
	}
	var jobs []job
	for j, k := range p.peer {
		// planMix made backend j%fleetBackends the owner.
		jobs = append(jobs, job{k, f.names[(j+1)%fleetBackends]})
	}
	// The hot keys go last, so their options-session is resident on
	// each owner when the window starts.
	for _, k := range p.hot {
		jobs = append(jobs, job{k, f.gwURL})
	}
	var mu sync.Mutex
	err = forEachClient(ctx, len(jobs), func(c *http.Client, i int) error {
		j := jobs[i]
		body, _ := json.Marshal(p.keys[j.key])
		ex, err := post(ctx, c, j.url+"/v1/simulate?wait=60s", body)
		if err != nil {
			return err
		}
		if ex.status != 200 || ex.cache != pathMiss {
			return fmt.Errorf("set-up request for key %d: status %d, cache %q", j.key, ex.status, ex.cache)
		}
		_, res, err := simResult(ex.body)
		if err != nil {
			return err
		}
		mu.Lock()
		ms.ref[j.key] = sha256.Sum256(res)
		mu.Unlock()
		return nil
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return ms, nil
}

// forEachClient hands the indices 0..n-1 in order to mixClients
// closed-loop callers and waits for them; the first error stops all.
func forEachClient(ctx context.Context, n int, fn func(c *http.Client, i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, mixClients)
	var stop atomic.Bool
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := loadClient()
			defer cs.CloseIdleConnections()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(cs, i); err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// mixRecord is one measured operation, reduced to what the checks after
// the window need, so that the benchmark holds no response bodies while
// the window's memory is measured. done is when it completed, measured
// from the start of the window (0: never sent).
type mixRecord struct {
	done, rtt time.Duration
	cache     string   // X-Pac-Cache
	ok        bool     // status 200, a finished job, a body that agrees with the header
	digest    [32]byte // of the compacted sim result
	result    []byte   // the compacted sim result, kept only for the exact counts
}

// newRecord reduces one exchange to a mixRecord, keeping the result
// itself when keep is set.
func newRecord(ex exchange, err error, keep bool) mixRecord {
	r := mixRecord{rtt: ex.rtt, cache: ex.cache}
	if err != nil || ex.status != http.StatusOK {
		return r
	}
	v, res, err := simResult(ex.body)
	if err != nil || v.Result.Cache != ex.cache {
		return r
	}
	r.ok, r.digest = true, sha256.Sum256(res)
	if keep {
		r.result = res
	}
	return r
}

// sliceRate is the median, over the whole one-second slices of the
// window, of the requests completed in each slice. A median of slices
// keeps a short stall of the shared host out of the throughput.
func sliceRate(records []mixRecord) float64 {
	var counts []float64
	for _, r := range records {
		if r.done == 0 {
			continue
		}
		s := int(r.done / time.Second)
		for len(counts) <= s {
			counts = append(counts, 0)
		}
		counts[s]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last slice is partial
	}
	return median(counts)
}

func runMix(ctx context.Context, cfg runConfig) (*outcome, error) {
	p := planMix(cfg.seed, mixOps, fleetOwner())
	out := &outcome{layers: map[string]float64{}}
	var ms *mixSetup
	for i := 0; i < cfg.setups; i++ {
		if ms != nil {
			ms.f.close()
		}
		start := time.Now()
		var err error
		if ms, err = setupMix(ctx, p, cfg.tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}
	defer ms.f.close()
	settleHeap()
	before, err := ms.f.counters()
	if err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		cfg.tr.reset()
	}

	// The exact simulated counts of a traced run sum over the results of
	// the stream's first misses.
	keep := make([]bool, len(p.ops))
	for i, n := 0, 0; i < len(p.ops) && n < mixExactMisses; i++ {
		if p.ops[i].path == pathMiss {
			keep[i] = true
			n++
		}
	}
	records := make([]mixRecord, len(p.ops))
	var prof bytes.Buffer
	if cfg.tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	mem := startMemSampler()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	err = forEachClient(ctx, len(p.ops), func(c *http.Client, i int) error {
		if time.Now().After(deadline) {
			return errWindowOver
		}
		body, _ := json.Marshal(p.keys[p.ops[i].key])
		ex, err := post(ctx, c, ms.f.gwURL+"/v1/simulate?wait=60s", body)
		done := time.Since(start)
		records[i] = newRecord(ex, err, keep[i])
		records[i].done = done
		return nil
	})
	if err != nil && err != errWindowOver {
		return nil, err
	}
	held, heap, gc := mem.stop()
	if cfg.tr != nil {
		pprof.StopCPUProfile()
	}
	after, err := ms.f.counters()
	if err != nil {
		return nil, err
	}
	out.memMiB = held

	// Output checks, on the digests taken as each response arrived:
	// every memo, disk and peer result must be byte-identical to the
	// miss that first produced its key.
	paths := map[string]*dist{}
	for _, path := range mixPaths {
		paths[path] = &dist{}
	}
	ref := ms.ref
	var exact []*sim.Result
	var window time.Duration
	unplanned := 0
	for i, r := range records {
		if r.done == 0 {
			continue
		}
		window = max(window, r.done)
		out.attempted++
		op := p.ops[i]
		if !r.ok {
			out.failed++
			continue
		}
		if want, ok := ref[op.key]; ok {
			if want != r.digest {
				out.failed++
				continue
			}
		} else {
			ref[op.key] = r.digest
		}
		if r.result != nil {
			res, err := decodeResult(r.result)
			if err != nil {
				return nil, err
			}
			exact = append(exact, res)
		}
		if paths[r.cache] != nil {
			paths[r.cache].add(r.rtt)
		}
		if r.cache != op.path {
			unplanned++
		}
	}
	out.headline = *paths[pathMemo]
	if out.attempted == 0 {
		return nil, errNoSamples
	}
	out.throughput = sliceRate(records)

	// A fixed sample of keys recomputed in process: a hot key, a peer
	// key, and the keys of the first miss and of the first disk revisit.
	sample := []int{p.hot[0], p.peer[0]}
	for _, path := range []string{pathMiss, pathDisk} {
		for _, op := range p.ops {
			if op.path == path {
				sample = append(sample, op.key)
				break
			}
		}
	}
	for _, k := range sample {
		want, ok := ref[k]
		if !ok {
			continue // key never requested in this window
		}
		r, err := recompute(ctx, p.keys[k])
		if err != nil {
			return nil, err
		}
		got, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if sha256.Sum256(got) != want {
			out.failed++
		}
	}

	for _, path := range mixPaths {
		out.named = append(out.named, latencyMetrics(path, *paths[path])...)
	}
	out.named = append(out.named, namedMetric{"throughput_rps", "req/s", out.throughput,
		fmt.Sprintf("median of one-second slices; %d requests in %.1f s, %d closed-loop clients",
			out.attempted, window.Seconds(), mixClients)},
		namedMetric{"unplanned_path", "count", float64(unplanned),
			"requests answered from another cache path than the plan's"})
	if cfg.tr == nil {
		return out, nil
	}
	l := out.layers
	if err := profileLayers(l, prof.Bytes()); err != nil {
		return nil, err
	}
	l["runtime.gc_cpu_pct"], l["runtime.heap_peak_mb"] = gc, heap
	serverLayers(l, cfg.tr.all(), deltas(before, after), window)
	for _, path := range mixPaths {
		clientLayers(l, path, *paths[path])
	}
	exactFromResults(l, exact)
	return out, nil
}
