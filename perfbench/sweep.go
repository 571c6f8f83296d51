package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"time"

	"github.com/pacsim/pac/internal/report"
	"github.com/pacsim/pac/internal/server"
	"github.com/pacsim/pac/internal/sim"
	"github.com/pacsim/pac/internal/workload"
)

// sweepBody is a POST /v1/sweep request over the 14 canonical
// benchmarks (the default) × all five modes at one seed.
type sweepBody struct {
	Modes []string `json:"modes"`
	Seed  uint64   `json:"seed"`
}

// sweepSeed gives sweep i of a run its own seed, so every cell misses.
// Index -1 is the set-up's warm-up sweep.
func sweepSeed(seed uint64, i int) uint64 {
	rng := splitmix64(seed ^ uint64(int64(i+2))*0x9e3779b97f4a7c15)
	return rng.next() | 1
}

// sweepResp is the part of the merged sweep payload the checks read.
type sweepResp struct {
	Table struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	} `json:"table"`
	Text string `json:"text"`
}

const (
	// sweepReplays is how many of the window's sweeps (spread over it)
	// are sent again after the window and must return the same text.
	sweepReplays = 2
	// sweepCellChecks is how many cells of the first sweep are
	// recomputed in process.
	sweepCellChecks = 3
)

func doSweep(ctx context.Context, f *fleet, c *http.Client, seed uint64) (exchange, error) {
	body, _ := json.Marshal(sweepBody{Modes: modeNames, Seed: seed})
	return post(ctx, c, f.gwURL+"/v1/sweep", body)
}

func runSweep(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	c := loadClient()
	defer c.CloseIdleConnections()

	// Set-up: fleet boot with stores and journals, then one warm-up sweep.
	var f *fleet
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = startFleet(ctx, true, cfg.tr); err != nil {
			return nil, err
		}
		ex, err := doSweep(ctx, f, c, sweepSeed(cfg.seed, -1))
		if err != nil {
			f.close()
			return nil, err
		}
		if ex.status != 200 {
			f.close()
			return nil, fmt.Errorf("warm-up sweep: status %d: %s", ex.status, ex.body)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}
	defer f.close()
	settleHeap()
	before, err := f.counters()
	if err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		cfg.tr.reset()
	}

	var prof bytes.Buffer
	if cfg.tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var sweeps []exchange
	mem := startMemSampler()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		ex, err := doSweep(ctx, f, c, sweepSeed(cfg.seed, len(sweeps)))
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, ex)
	}
	window := time.Since(start)
	held, heap, gc := mem.stop()
	var spans []*span
	if cfg.tr != nil {
		pprof.StopCPUProfile()
		spans = cfg.tr.all() // the replays below are not part of the window
	}
	after, err := f.counters()
	if err != nil {
		return nil, err
	}
	out.memMiB = held
	out.throughput = float64(len(sweeps)) / window.Seconds()

	// Output checks, after the window.
	texts := make([]*sweepResp, len(sweeps))
	for i, ex := range sweeps {
		out.attempted++
		var r sweepResp
		if ex.status != 200 || json.Unmarshal(ex.body, &r) != nil || len(r.Table.Rows) != len(workload.Names())*len(modeNames) {
			out.failed++
			continue
		}
		texts[i] = &r
		out.headline.add(ex.rtt)
	}
	if len(out.headline) == 0 {
		return nil, errNoSamples
	}
	// Replays: every cell is now a memo or store hit, and the merged
	// text must not change.
	for k := 0; k < sweepReplays; k++ {
		i := k * (len(sweeps) - 1) / max(sweepReplays-1, 1)
		if texts[i] == nil {
			continue
		}
		out.attempted++
		ex, err := doSweep(ctx, f, c, sweepSeed(cfg.seed, i))
		var r sweepResp
		if err != nil || ex.status != 200 || json.Unmarshal(ex.body, &r) != nil || r.Text != texts[i].Text {
			out.failed++
		}
	}
	// Cells of the first sweep recomputed in process.
	if first := texts[0]; first != nil {
		for k := 0; k < sweepCellChecks; k++ {
			row := first.Table.Rows[k*(len(first.Table.Rows)-1)/(sweepCellChecks-1)]
			out.attempted++
			want, err := recomputeRow(ctx, sweepSeed(cfg.seed, 0), row[0], row[1], first.Table.Headers)
			if err != nil {
				return nil, err
			}
			if fmt.Sprint(want) != fmt.Sprint(row) {
				out.failed++
			}
		}
	}

	out.named = append(out.named, latencyMetrics("sweep", out.headline)...)
	out.named = append(out.named, namedMetric{"throughput", "1/s", out.throughput,
		fmt.Sprintf("sweeps of %d cells per second", len(workload.Names())*len(modeNames))})
	if cfg.tr == nil {
		return out, nil
	}
	l := out.layers
	if err := profileLayers(l, prof.Bytes()); err != nil {
		return nil, err
	}
	l["runtime.gc_cpu_pct"], l["runtime.heap_peak_mb"] = gc, heap
	serverLayers(l, spans, deltas(before, after), window)
	clientLayers(l, "sweep", out.headline)
	// Exact simulated counts over the cells of the window's first sweep,
	// read from the backends' simulate responses.
	firstSeed := sweepSeed(cfg.seed, 0)
	var results []*sim.Result
	for _, s := range spans {
		if s.layer != "server" || s.name != "/v1/simulate" {
			continue
		}
		v, res, err := simResult(s.body)
		if err != nil {
			continue
		}
		var req server.SimulateRequest
		if json.Unmarshal(v.Request, &req) != nil || req.Seed != firstSeed || v.Result.Cache != pathMiss {
			continue
		}
		r, err := decodeResult(res)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	exactFromResults(l, results)
	return out, nil
}

// recomputeRow simulates one sweep cell in process and formats its row
// the way the gateway's merged table does.
func recomputeRow(ctx context.Context, seed uint64, bench, mode string, headers []string) ([]string, error) {
	r, err := recompute(ctx, server.SimulateRequest{Benchmark: bench, Mode: mode, Seed: seed})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("sweep", headers...)
	t.AddRow(bench, mode, r.Cycles, r.RawRequests, r.MemPackets, r.CoalescingEfficiency())
	row := make([]string, len(headers))
	for i := range row {
		row[i] = t.Cell(0, i)
	}
	return row, nil
}
