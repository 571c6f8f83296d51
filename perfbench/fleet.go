package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/pacsim/pac/internal/experiments"
	"github.com/pacsim/pac/internal/gateway"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/store"
	"github.com/pacsim/pac/internal/telemetry"
	"github.com/pacsim/pac/internal/wal"
)

// fleetBase are the base options of every fleet node: the -quick scale
// of pacsim, so one simulation takes a few milliseconds.
var fleetBase = experiments.Options{
	Cores:           2,
	AccessesPerCore: 5000,
	Scale:           0.02,
	L1Bytes:         2 << 10,
	LLCBytes:        128 << 10,
	Seed:            42,
}

// The fleet shape: two pacd backends with one sim worker each behind one
// pacgw, all in this process on loopback TCP, so sim workers total
// nproc on the two-core reference box.
const (
	fleetBackends = 2
	fleetWorkers  = 1
)

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in (the repository root); dataRoot holds the fleets'
// stores and journals.
const (
	buildDir = ".bench_build"
	dataRoot = buildDir + "/data"
)

type node struct {
	url   string
	reg   *telemetry.Registry
	srv   *server.Server
	store *store.Store
	wal   *wal.Log
	http  *http.Server
}

type fleet struct {
	dir      string
	backends []*node
	names    []string
	gw       *gateway.Gateway
	gwReg    *telemetry.Registry
	gwHTTP   *http.Server
	gwURL    string
}

// startFleet boots the backends (store open, optional WAL) and the
// gateway, and waits until every backend answers /readyz. With a tracer
// the backend and gateway handlers and the gateway's client are wrapped.
func startFleet(ctx context.Context, withWAL bool, tr *tracer) (*fleet, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	for i := 0; i < fleetBackends; i++ {
		n := &node{reg: telemetry.NewRegistry()}
		f.backends = append(f.backends, n)
		ndir := filepath.Join(dir, fmt.Sprintf("b%d", i))
		if n.store, err = store.Open(store.Config{Dir: filepath.Join(ndir, "store"), Registry: n.reg}); err != nil {
			return fail(err)
		}
		if withWAL {
			if n.wal, _, err = wal.Open(wal.Config{Path: filepath.Join(ndir, "jobs.wal"), Registry: n.reg}); err != nil {
				return fail(err)
			}
		}
		n.srv = server.New(server.Config{
			Options:     fleetBase,
			Parallel:    fleetWorkers,
			Concurrency: fleetWorkers,
			Registry:    n.reg,
			NodeID:      fmt.Sprintf("b%d", i),
			Store:       n.store,
			WAL:         n.wal,
		})
		if n.url, n.http, err = serveBackend(i, tr.wrapServer(n.srv.Handler())); err != nil {
			return fail(err)
		}
		f.names = append(f.names, n.url)
	}
	var client *http.Client
	if tr != nil {
		client = &http.Client{Transport: clientTransport{t: tr, next: http.DefaultTransport}}
	}
	f.gwReg = telemetry.NewRegistry()
	if f.gw, err = gateway.New(gateway.Config{Backends: f.names, Base: fleetBase, Registry: f.gwReg, Client: client}); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	f.gwURL, f.gwHTTP = serve(ln, tr.wrapGateway(f.gw.Handler()))
	for _, n := range f.backends {
		if err := waitReady(ctx, n.url); err != nil {
			return fail(err)
		}
	}
	return f, nil
}

// backendPort is the listening port of the first backend; backend i
// listens on backendPort+i. The ports lie below the usual ephemeral range
// so outgoing connections do not hold them. A backend's URL is its name
// on the gateway's consistent-hash ring, so fixed ports give every run
// the same ring and the same split of keys between the backends; other
// ports would make the load balance, and with it the sweep latency,
// differ from run to run. A run therefore fails rather than move.
const backendPort = 24671

// backendAddr is backend i's fixed listening address; "http://" and
// the address is its name on the ring.
func backendAddr(i int) string { return fmt.Sprintf("127.0.0.1:%d", backendPort+i) }

// serveBackend listens on backend i's fixed port.
func serveBackend(i int, h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", backendAddr(i))
	if err != nil {
		return "", nil, fmt.Errorf("backend %d needs %s, so that every run has the same key split: %w", i, backendAddr(i), err)
	}
	url, hs := serve(ln, h)
	return url, hs, nil
}

// fleetOwner returns a function telling which backend owns a simulate
// request on the gateway's ring.
func fleetOwner() func(server.SimulateRequest) int {
	names := make([]string, fleetBackends)
	for i := range names {
		names[i] = "http://" + backendAddr(i)
	}
	ring := gateway.NewRing(gateway.DefaultReplicas, names...)
	base := experiments.NewSession(fleetBase).Options()
	return func(req server.SimulateRequest) int {
		opts, bench, mode, err := server.ResolveSimulate(base, req)
		if err != nil {
			panic(fmt.Sprintf("perfbench generated an invalid request %+v: %v", req, err))
		}
		owner, _ := ring.Owner(server.SimKey(server.OptionsHash(opts), bench, mode))
		for i, n := range names {
			if n == owner {
				return i
			}
		}
		panic("ring owner " + owner + " is not a backend")
	}
}

// serve mounts h on a listener.
func serve(ln net.Listener, h http.Handler) (string, *http.Server) {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return "http://" + ln.Addr().String(), hs
}

func waitReady(ctx context.Context, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close stops the gateway, drains and stops every backend, closes the
// stores and journals, and removes the fleet's data.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.gwHTTP != nil {
		f.gwHTTP.Shutdown(ctx)
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, n := range f.backends {
		if n.http != nil {
			n.http.Shutdown(ctx)
		}
		if n.srv != nil {
			n.srv.Drain(ctx)
		}
		if n.wal != nil {
			n.wal.Close()
		}
		if n.store != nil {
			n.store.Close()
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// counters sums every pac_* series of the backends' registries (and of
// the gateway's) by family; histograms contribute <name>_sum and
// <name>_count.
func (f *fleet) counters() (map[string]float64, error) {
	regs := []*telemetry.Registry{f.gwReg}
	for _, n := range f.backends {
		regs = append(regs, n.reg)
	}
	out := map[string]float64{}
	for _, r := range regs {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		if err := sumExposition(out, &buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sumExposition adds each sample of a Prometheus text exposition to its
// family total, skipping histogram buckets.
func sumExposition(out map[string]float64, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("bad exposition line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[name] += v
	}
	return sc.Err()
}

// deltas subtracts a snapshot taken at the end of set-up, so set-up work
// never leaks into the window's numbers.
func deltas(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// loadClient is one closed-loop caller with its own single connection.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// exchange is one timed request and its outcome.
type exchange struct {
	status int
	cache  string // X-Pac-Cache
	body   []byte
	rtt    time.Duration
}

// post sends one JSON request and reads the whole response; rtt covers
// the request until the last body byte.
func post(ctx context.Context, c *http.Client, url string, body []byte) (exchange, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return exchange{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return exchange{}, err
	}
	return exchange{status: resp.StatusCode, cache: resp.Header.Get(server.CacheHeader), body: b, rtt: rtt}, nil
}

// jobView is the part of a pacd job view the benchmark reads.
type jobView struct {
	Status     string          `json:"status"`
	Error      string          `json:"error"`
	Request    json.RawMessage `json:"request"`
	CreatedAt  time.Time       `json:"createdAt"`
	StartedAt  *time.Time      `json:"startedAt"`
	FinishedAt *time.Time      `json:"finishedAt"`
	Result     struct {
		Cache  string          `json:"cache"`
		Result json.RawMessage `json:"result"`
	} `json:"result"`
}

// simResult decodes a finished simulate response and returns its
// compacted simulation result, the bytes every output check compares.
func simResult(body []byte) (jobView, []byte, error) {
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return v, nil, err
	}
	if v.Status != "done" {
		return v, nil, fmt.Errorf("job %s: %s", v.Status, v.Error)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, v.Result.Result); err != nil {
		return v, nil, err
	}
	return v, c.Bytes(), nil
}

// decodeResult decodes a simulation result as pacd serves it.
func decodeResult(b []byte) (*sim.Result, error) {
	r := new(sim.Result)
	return r, json.Unmarshal(b, r)
}

// recompute runs one simulate request in process, through
// experiments.Session.Result under the options the fleet resolves it to.
func recompute(ctx context.Context, req server.SimulateRequest) (*sim.Result, error) {
	opts, bench, mode, err := server.ResolveSimulate(experiments.NewSession(fleetBase).Options(), req)
	if err != nil {
		return nil, err
	}
	return experiments.NewSession(opts).Result(ctx, bench, mode)
}

// serverLayers derives the backend and gateway per-layer values from
// the window's spans and counter deltas.
func serverLayers(l map[string]float64, spans []*span, d map[string]float64, window time.Duration) {
	kids := childrenOf(spans)
	var gwSelf, queue, overhead, peerFetch dist
	jobs := map[string]*dist{}
	var gwReqs, gwCalls int
	for _, s := range spans {
		switch {
		case s.layer == "gateway" && (s.name == "/v1/simulate" || s.name == "/v1/sweep"):
			gwReqs++
			gwCalls += len(kids[s.id])
			gwSelf.add(selfTime(s, kids[s.id]))
		case s.layer == "server" && strings.HasPrefix(s.name, "/v1/store/") && s.code == http.StatusOK:
			peerFetch.add(s.dur())
		case s.layer == "server" && s.name == "/v1/simulate":
			var v jobView
			if json.Unmarshal(s.body, &v) != nil || v.StartedAt == nil || v.FinishedAt == nil {
				continue
			}
			queue.add(v.StartedAt.Sub(v.CreatedAt))
			overhead.add(s.dur() - v.FinishedAt.Sub(v.CreatedAt))
			if jobs[v.Result.Cache] == nil {
				jobs[v.Result.Cache] = &dist{}
			}
			jobs[v.Result.Cache].add(v.FinishedAt.Sub(*v.StartedAt))
		}
	}
	l["gateway.self_ms_p50"] = gwSelf.median()
	if gwReqs > 0 {
		l["gateway.backend_calls_per_req"] = float64(gwCalls) / float64(gwReqs)
	}
	l["server.overhead_ms_p50"] = overhead.median()
	l["server.queue_wait_ms_p50"] = queue.median()
	if p, ok := tailPercentile(len(queue)); ok {
		l["server.queue_wait_ms_tail"] = queue.p(p)
	}
	for path, dd := range jobs {
		l["server.job_ms_p50_"+path] = dd.median()
	}
	l["store.peer_fetch_ms_p50"] = peerFetch.median()

	l["gateway.retries"] = d["pac_gw_retries_total"]
	l["server.affinity_batched"] = d["pac_jobs_affinity_batched_total"]
	l["server.rejected"] = d["pac_jobs_rejected_total"]
	l["store.hits"] = d["pac_store_hits_total"]
	l["store.misses"] = d["pac_store_misses_total"]
	l["store.writes"] = d["pac_store_writes_total"]
	l["store.peer_hits"] = d["pac_store_peer_hits_total"]
	l["store.peer_misses"] = d["pac_store_peer_misses_total"]
	l["wal.records"] = d["pac_wal_records_total"]
	l["experiments.sims"] = d["pac_sims_completed_total"]
	if n := d["pac_session_memo_hits_total"] + d["pac_session_memo_misses_total"]; n > 0 {
		l["experiments.memo_hit_pct"] = 100 * d["pac_session_memo_hits_total"] / n
	}
	if n := d["pac_machine_cache_hits_total"] + d["pac_machine_cache_misses_total"]; n > 0 {
		l["sim.machine_warm_pct"] = 100 * d["pac_machine_cache_hits_total"] / n
	}
	wallNS := d["pac_sim_wall_seconds_sum"] * 1e9
	if a := d["pac_cache_accesses_total"]; a > 0 {
		l["sim.host_ns_per_access"] = wallNS / a
	}
	if steps := d["pac_sim_cycles_total"] - d["pac_sim_cycles_skipped_total"]; steps > 0 {
		l["sim.host_ns_per_step"] = wallNS / steps
	}
	l["sim.wall_share_pct"] = 100 * d["pac_sim_wall_seconds_sum"] /
		(window.Seconds() * fleetBackends * fleetWorkers)
}

var errNoSamples = errors.New("no operation completed in the window")
