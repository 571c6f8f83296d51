// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator and its serving fleet, in process,
// through the program's public entry points, checks that every output is
// correct, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON object on the last line
// of standard output. BENCHMARK.json at the repository root lists the
// workloads and metrics; spec.json beside this file records the
// reference digests, the fleet shape and how each layer metric relates
// to the end-to-end ones.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program reads.
type spec struct {
	DefaultSeed  uint64            `json:"default_seed"`
	SuiteDigests map[string]string `json:"suite_digests"`
}

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. p50_ms is the median latency of the workload's headline
// operation: a whole suite pass, a memo-hit request, a whole sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput", "1/s", "higher"},
	{"host_mem_mb", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.host_ns_per_access", "ns", "lower"},
		{"sim.host_ns_per_step", "ns", "lower"},
		{"sim.cycles", "count", "lower"},
		{"sim.skipped_pct", "%", "higher"},
		{"sim.machine_warm_pct", "%", "higher"},
		{"sim.wall_share_pct", "%", "higher"},
		{"experiments.precompute_ms", "ms", "lower"},
		{"experiments.render_ms", "ms", "lower"},
		{"experiments.sims", "count", "lower"},
		{"experiments.memo_hit_pct", "%", "higher"},
		{"workload.accesses", "count", "lower"},
		{"cache.llc_misses", "count", "lower"},
		{"cache.writebacks", "count", "lower"},
		{"coalesce.raw_requests", "count", "lower"},
		{"coalesce.mem_packets", "count", "lower"},
		{"coalesce.efficiency_pct", "%", "higher"},
		{"mshr.merges", "count", "higher"},
		{"mshr.comparisons", "count", "lower"},
		{"mshr.merge_fails", "count", "lower"},
		{"hmc.requests", "count", "lower"},
		{"hmc.bank_conflicts", "count", "lower"},
		{"hmc.row_activations", "count", "lower"},
	}
	for _, g := range append(append([]string(nil), cpuGroups...), "other") {
		defs = append(defs, metricDef{metricPrefix(g) + ".cpu_pct", "%", "lower"})
	}
	defs = append(defs,
		metricDef{"gateway.self_ms_p50", "ms", "lower"},
		metricDef{"gateway.backend_calls_per_req", "count", "lower"},
		metricDef{"gateway.retries", "count", "lower"},
		metricDef{"server.overhead_ms_p50", "ms", "lower"},
		metricDef{"server.queue_wait_ms_p50", "ms", "lower"},
		metricDef{"server.queue_wait_ms_tail", "ms", "lower"},
	)
	for _, p := range []string{"memo", "disk", "peer", "miss"} {
		defs = append(defs, metricDef{"server.job_ms_p50_" + p, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"server.affinity_batched", "count", "higher"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.misses", "count", "lower"},
		metricDef{"store.writes", "count", "lower"},
		metricDef{"store.peer_hits", "count", "higher"},
		metricDef{"store.peer_misses", "count", "lower"},
		metricDef{"store.peer_fetch_ms_p50", "ms", "lower"},
		metricDef{"wal.records", "count", "lower"},
		metricDef{"runtime.gc_cpu_pct", "%", "lower"},
		metricDef{"runtime.heap_peak_mb", "MiB", "lower"},
	)
	for _, p := range []string{"memo", "disk", "peer", "miss", "sweep", "suite"} {
		defs = append(defs,
			metricDef{"client." + p + "_p50_ms", "ms", "lower"},
			metricDef{"client." + p + "_tail_ms", "ms", "lower"},
			metricDef{"client." + p + "_n", "count", "higher"},
		)
	}
	return append(defs, metricDef{"trace.overhead_pct", "%", "lower"})
}()

// metricPrefix turns a CPU group into a metric-name prefix ("net/http"
// becomes "net_http").
func metricPrefix(group string) string {
	b := []byte(group)
	for i, c := range b {
		if c == '/' {
			b[i] = '_'
		}
	}
	return string(b)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	// setups is how many times the workload's set-up runs; setup_s is
	// the median.
	setups int
	tr     *tracer
	spec   spec
}

// outcome is what one measured window of a workload produced.
type outcome struct {
	setup      []float64 // seconds, one per set-up
	attempted  int64
	failed     int64
	headline   dist    // p50_ms samples
	throughput float64 // completed operations per second
	memMiB     float64 // peak runtime memory held from the OS
	// named are the metrics each workload prints for people: per-path
	// latencies with their sample counts.
	named []namedMetric
	// layers are the per-layer values (traced runs only).
	layers map[string]float64
}

type namedMetric struct {
	name, unit string
	value      float64
	note       string
}

// A workload runs set-up and one measured window and checks its outputs.
type workloadFunc func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-suite": runSuite,
	"fleet-mix":   runMix,
	"fleet-sweep": runSweep,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-suite, fleet-mix or fleet-sweep")
	seed := fs.Uint64("seed", 0, "workload seed (0: the default seed of spec.json)")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	record := fs.Bool("record", false, "print the paper-suite digests of the default seed, cross-checked against a sequential pass, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	if *seed == 0 {
		*seed = sp.DefaultSeed
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if *record {
		return recordDigests(ctx, sp.DefaultSeed, stdout)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, setups: 5, spec: sp}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU())

	plain, err := w(ctx, cfg)
	if err != nil {
		return err
	}
	res := result{Correct: plain.failed == 0, Attempted: plain.attempted, Failed: plain.failed,
		Metrics: map[string]metricValue{}}
	printNamed(stdout, plain)
	if *trace == 0 {
		for name, v := range endToEndValues(plain) {
			res.Metrics[name] = v
		}
		return emit(stdout, res)
	}

	// Traced run: a second set-up and window of the same workload, with
	// spans, hooks and a CPU profile. The difference in the headline
	// p50_ms from the untraced window above is the tracer's cost.
	cfg.setups = 1
	cfg.tr = &tracer{}
	traced, err := w(ctx, cfg)
	if err != nil {
		return err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: traced.layers[d.Name], Unit: d.Unit}
	}
	overhead := 0.0
	if p := plain.headline.median(); p > 0 {
		overhead = 100 * (traced.headline.median()/p - 1)
	}
	res.Metrics["trace.overhead_pct"] = metricValue{Value: overhead, Unit: "%"}
	spans := fmt.Sprintf("%s/spans/%s-seed%d.jsonl", buildDir, *name, *seed)
	if err := cfg.tr.write(spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  spans written to %s\n", spans)
	printLayers(stdout, res.Metrics)
	return emit(stdout, res)
}

// endToEndValues converts an untraced outcome into the end-to-end
// metrics.
func endToEndValues(o *outcome) map[string]metricValue {
	ok := 1.0
	if o.attempted > 0 {
		ok = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	return map[string]metricValue{
		"setup_s":     {median(o.setup), "s"},
		"p50_ms":      {o.headline.median(), "ms"},
		"throughput":  {o.throughput, "1/s"},
		"host_mem_mb": {o.memMiB, "MiB"},
		"ok_frac":     {ok, "ratio"},
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func emit(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printNamed(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "  %-22s %12.4f %-6s median of %d set-ups\n", "setup_s", median(o.setup), "s", len(o.setup))
	fmt.Fprintf(w, "  %-22s %12.4f %-6s %d of %d operations failed\n", "failed_frac",
		float64(o.failed)/float64(max(o.attempted, 1)), "ratio", o.failed, o.attempted)
	fmt.Fprintf(w, "  %-22s %12.4f %-6s peak during the window\n", "host_mem_mb", o.memMiB, "MiB")
	for _, m := range o.named {
		fmt.Fprintf(w, "  %-22s %12.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func printLayers(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// latencyMetrics returns the p50 and tail entries of one path for the
// human-readable listing, with sample counts; nothing when the path
// recorded no samples.
func latencyMetrics(prefix string, d dist) []namedMetric {
	if len(d) == 0 {
		return nil
	}
	out := []namedMetric{{prefix + "_p50_ms", "ms", d.median(), fmt.Sprintf("n=%d", len(d))}}
	if p, ok := tailPercentile(len(d)); ok {
		beyond := int(float64(len(d)) * (100 - p) / 100)
		out = append(out, namedMetric{prefix + "_tail_ms", "ms", d.p(p),
			fmt.Sprintf("p%g, n=%d, %d beyond", p, len(d), beyond)})
	} else {
		out = append(out, namedMetric{prefix + "_tail_ms", "ms", 0,
			fmt.Sprintf("n=%d is too few for a tail with %d beyond", len(d), minBeyond)})
	}
	return out
}

// clientLayers fills the client.<path>_* per-layer values of one path.
func clientLayers(layers map[string]float64, path string, d dist) {
	layers["client."+path+"_n"] = float64(len(d))
	if len(d) == 0 {
		return
	}
	layers["client."+path+"_p50_ms"] = d.median()
	if p, ok := tailPercentile(len(d)); ok {
		layers["client."+path+"_tail_ms"] = d.p(p)
	}
}
