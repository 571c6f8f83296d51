package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/pacsim/pac/internal/report"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/workload"
)

// SweepRequest is the body of POST /v1/sweep: one simulation per
// (benchmark, mode) pair, fanned out across the fleet by each pair's
// canonical routing key and merged into one table. Zero-valued option
// fields inherit the fleet base options, exactly like /v1/simulate.
type SweepRequest struct {
	// Benchmarks to sweep; empty means the canonical suite.
	Benchmarks []string `json:"benchmarks"`
	// Modes to sweep; empty means ["pac"].
	Modes []string `json:"modes"`

	Cores           int     `json:"cores"`
	AccessesPerCore int     `json:"accessesPerCore"`
	Scale           float64 `json:"scale"`
	Seed            uint64  `json:"seed"`
	L1Bytes         int     `json:"l1Bytes"`
	LLCBytes        int     `json:"llcBytes"`

	FaultLinkCRCRate        float64 `json:"faultLinkCrcRate"`
	FaultPoisonRate         float64 `json:"faultPoisonRate"`
	FaultVaultStallInterval int64   `json:"faultVaultStallInterval"`
	FaultVaultStallCycles   int64   `json:"faultVaultStallCycles"`
	FaultMaxReissues        int     `json:"faultMaxReissues"`
	FaultSeed               uint64  `json:"faultSeed"`
}

// simulateRequest builds the per-pair simulate body.
func (r SweepRequest) simulateRequest(bench, mode string) server.SimulateRequest {
	return server.SimulateRequest{
		Benchmark:               bench,
		Mode:                    mode,
		Cores:                   r.Cores,
		AccessesPerCore:         r.AccessesPerCore,
		Scale:                   r.Scale,
		Seed:                    r.Seed,
		L1Bytes:                 r.L1Bytes,
		LLCBytes:                r.LLCBytes,
		FaultLinkCRCRate:        r.FaultLinkCRCRate,
		FaultPoisonRate:         r.FaultPoisonRate,
		FaultVaultStallInterval: r.FaultVaultStallInterval,
		FaultVaultStallCycles:   r.FaultVaultStallCycles,
		FaultMaxReissues:        r.FaultMaxReissues,
		FaultSeed:               r.FaultSeed,
	}
}

// SweepRoute records where one cell of the merged table ran — fan-out
// metadata that varies with fleet layout, deliberately kept outside the
// table so the table itself is byte-identical across fleet sizes.
type SweepRoute struct {
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Key       string `json:"key"`
	Backend   string `json:"backend"`
	Cached    bool   `json:"cached"`
	Attempts  int    `json:"attempts"`
}

// SweepResponse is the merged sweep payload.
type SweepResponse struct {
	// Table is the deterministic merge: rows in request order
	// (benchmark-major, mode-minor), each cell derived only from that
	// simulation's own result — never from completion order or fleet
	// layout. Text is its rendered form; both are byte-identical to a
	// single-node run of the same sweep.
	Table *report.Table `json:"table"`
	Text  string        `json:"text"`
	// Routes is the per-cell fan-out metadata (varies with fleet).
	Routes []SweepRoute `json:"routes"`
}

// sweepPair is one (benchmark, mode) cell with its pre-resolved routing
// key and forward body.
type sweepPair struct {
	bench, mode string
	key         string
	body        []byte
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	pairs, err := g.sweepPairs(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.SweepTimeout)
	defer cancel()
	g.reg.Counter("pac_gw_sweeps_total", "Sweep fan-outs started.").Inc()

	// Fan out in request order: every pair dispatches by its own key, so
	// the cells land on (and warm) their canonical shards, and the
	// interleaved keys keep every shard busy from the first cell on.
	// Results slot into place by index; completion order never matters,
	// so the merged table is byte-identical to a single-node run.
	rows := make([]sweepRow, len(pairs))
	errs := make([]error, len(pairs))
	workers := g.cfg.SweepConcurrency
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				rows[i], errs[i] = g.runSweepSim(ctx, pairs[i])
			}
		}()
	}
	for i := range pairs {
		feed <- i
	}
	close(feed)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("sweep %s/%s: %v", pairs[i].bench, pairs[i].mode, err))
			return
		}
	}

	table := report.NewTable("sweep",
		"benchmark", "mode", "cycles", "rawRequests", "memPackets", "coalesceEff%")
	routes := make([]SweepRoute, len(rows))
	for i, row := range rows {
		p := pairs[i]
		res := &row.res
		table.AddRow(p.bench, p.mode, res.Cycles, res.RawRequests, res.MemPackets,
			res.CoalescingEfficiency())
		routes[i] = SweepRoute{
			Benchmark: p.bench, Mode: p.mode, Key: p.key,
			Backend: row.backend, Cached: row.cached, Attempts: row.attempts,
		}
	}
	var text strings.Builder
	if err := table.WriteText(&text); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{Table: table, Text: text.String(), Routes: routes})
}

// sweepPairs expands and validates the request into its ordered cells.
// Every pair resolves through server.ResolveSimulate up front, so an
// invalid benchmark or mode is a 400 before any fan-out begins.
func (g *Gateway) sweepPairs(req SweepRequest) ([]sweepPair, error) {
	benches := req.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	modes := req.Modes
	if len(modes) == 0 {
		modes = []string{"pac"}
	}
	pairs := make([]sweepPair, 0, len(benches)*len(modes))
	for _, b := range benches {
		for _, m := range modes {
			sr := req.simulateRequest(b, m)
			opts, bench, mode, err := server.ResolveSimulate(g.base, sr)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(sr)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, sweepPair{
				bench: bench,
				mode:  mode.String(),
				key:   server.SimKey(server.OptionsHash(opts), bench, mode),
				body:  body,
			})
		}
	}
	return pairs, nil
}

// sweepRow is one cell's simulation result plus where it ran.
type sweepRow struct {
	res sim.Result

	backend  string
	cached   bool
	attempts int
}

// gwJobView is the slice of the backend job view the sweep needs.
type gwJobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// runSweepSim executes one cell: dispatch by key, await the job, decode
// the result. A backend dying mid-job loses that job with it, so the
// whole cell is re-dispatched (the ring then routes it to a failover
// candidate) a bounded number of times.
func (g *Gateway) runSweepSim(ctx context.Context, p sweepPair) (sweepRow, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			g.reg.Counter("pac_gw_sweep_redispatches_total",
				"Sweep cells re-dispatched after losing their backend mid-job.").Inc()
			if err := g.backoff(ctx, attempt-1); err != nil {
				return sweepRow{}, err
			}
		}
		row, err := g.sweepSimOnce(ctx, p)
		if err == nil {
			row.attempts = attempt + 1
			return row, nil
		}
		if ctx.Err() != nil {
			return sweepRow{}, err
		}
		lastErr = err
	}
	return sweepRow{}, lastErr
}

func (g *Gateway) sweepSimOnce(ctx context.Context, p sweepPair) (sweepRow, error) {
	res, err := g.dispatch(ctx, p.key, http.MethodPost, "/v1/simulate",
		"wait=55s", p.body, http.Header{"Content-Type": []string{"application/json"}})
	if err != nil {
		return sweepRow{}, err
	}
	view, err := decodeJobView(res.resp)
	if err != nil {
		g.noteFailure(res.backend)
		return sweepRow{}, err
	}
	// 202: the job outlived the synchronous window; long-poll it on the
	// backend that owns it until it reaches a terminal state.
	for view.Status == "queued" || view.Status == "running" {
		resp, err := g.forward(ctx, res.backend, http.MethodGet,
			"/v1/jobs/"+view.ID, "wait=30s", nil, nil)
		if err != nil {
			g.noteFailure(res.backend)
			return sweepRow{}, err
		}
		view, err = decodeJobView(resp)
		if err != nil {
			return sweepRow{}, err
		}
	}
	if view.Status != "done" {
		return sweepRow{}, fmt.Errorf("job %s on %s ended %s: %s",
			view.ID, res.backend.name, view.Status, view.Error)
	}
	return decodeSweepRow(view.Result, res.backend.name)
}

func decodeJobView(resp *http.Response) (gwJobView, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return gwJobView{}, fmt.Errorf("backend answered %d", resp.StatusCode)
	}
	var view gwJobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return gwJobView{}, fmt.Errorf("decoding job view: %w", err)
	}
	return view, nil
}

// decodeSweepRow decodes a terminal simulate job's result payload.
func decodeSweepRow(raw json.RawMessage, backendName string) (sweepRow, error) {
	var payload struct {
		Cached bool       `json:"cached"`
		Result sim.Result `json:"result"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		return sweepRow{}, fmt.Errorf("decoding result: %w", err)
	}
	return sweepRow{res: payload.Result, backend: backendName, cached: payload.Cached}, nil
}
