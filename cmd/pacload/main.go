// Command pacload is the cluster load-test harness: a traffic generator
// that drives a pacgw gateway (or a single pacd node) with many
// concurrent clients issuing a mixed hot/cold key stream, then publishes
// throughput and latency percentiles as BENCH_cluster.json so later PRs
// cannot regress fleet performance unnoticed.
//
// Hot requests repeat a small set of simulate bodies — after the first
// miss they are session-memo hits on whichever shard owns them, so the
// hot path measures routing + cache affinity. Cold requests carry a
// unique workload seed each, forcing a fresh session and a full
// simulation — the worst case the fleet must absorb without starving the
// hot path.
//
// With -follow, pacload is instead a resumable job tail: it streams one
// job's server-sent events to stdout and survives connection drops (and
// even a backend crash/reboot behind the gateway) by reconnecting with
// the standard Last-Event-ID header, so the server's bounded replay ring
// fills the gap instead of losing progress lines.
//
// Usage:
//
//	pacload -gateway http://127.0.0.1:8090 -clients 1000 -requests 4000
//	pacload -gateway ... -hot-ratio 0.95 -hot-keys 8 -out BENCH_cluster.json
//	pacload -gateway ... -follow w0-j000017
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type result struct {
	latencyMS float64
	cached    bool
	backend   string
	// cache is the X-Pac-Cache source of a synchronous response
	// (memo|disk|peer|miss; empty on a 202 or an old backend).
	cache string
}

func main() {
	var (
		gatewayURL = flag.String("gateway", "http://127.0.0.1:8090", "gateway (or pacd) base URL")
		clients    = flag.Int("clients", 1000, "concurrent client goroutines")
		requests   = flag.Int("requests", 4000, "total requests to issue")
		hotRatio   = flag.Float64("hot-ratio", 0.95, "fraction of requests drawn from the hot key set")
		hotKeys    = flag.Int("hot-keys", 8, "distinct hot request bodies")
		benchCSV   = flag.String("benchmarks", "GS,STREAM,BFS,FFT", "benchmarks the hot keys cycle through")
		mode       = flag.String("mode", "pac", "coalescing mode of every request")
		wait       = flag.Duration("wait", 60*time.Second, "synchronous ?wait= window per request")
		coldBase   = flag.Uint64("cold-seed-base", 1_000_000, "first seed of the cold key stream")
		seed       = flag.Int64("seed", 1, "traffic generator seed")
		out        = flag.String("out", "BENCH_cluster.json", "output JSON path ('-' for stdout)")
		maxRetry   = flag.Int("max-retries", 50, "429 retries per request (honouring Retry-After)")
		follow     = flag.String("follow", "", "follow one job's SSE stream instead of load-testing (reconnects with Last-Event-ID)")
	)
	flag.Parse()

	if *follow != "" {
		if err := followJob(*gatewayURL, *follow); err != nil {
			fail(err)
		}
		return
	}

	benches := strings.Split(*benchCSV, ",")
	for i := range benches {
		benches[i] = strings.TrimSpace(benches[i])
	}
	if *hotKeys < 1 {
		*hotKeys = 1
	}
	// Hot bodies: a fixed, repeating set (seed 0 inherits the fleet base
	// options, so the whole hot set lives in the base session caches).
	hotBodies := make([][]byte, *hotKeys)
	for i := range hotBodies {
		hotBodies[i] = simBody(benches[i%len(benches)], *mode, 0)
	}

	client := &http.Client{}
	var (
		next      atomic.Int64
		okCount   atomic.Int64
		errCount  atomic.Int64
		throttled atomic.Int64
		retried   atomic.Int64

		mu      sync.Mutex
		results []result
	)
	simURL := strings.TrimRight(*gatewayURL, "/") + "/v1/simulate?wait=" + wait.String()

	startedAt := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for {
				i := next.Add(1) - 1
				if i >= int64(*requests) {
					return
				}
				var body []byte
				if rng.Float64() < *hotRatio {
					body = hotBodies[rng.Intn(len(hotBodies))]
				} else {
					// Cold: unique seed, distinct session, full simulation.
					body = simBody(benches[rng.Intn(len(benches))], *mode, *coldBase+uint64(i))
				}
				res, err := issue(client, simURL, body, *maxRetry, &throttled, &retried)
				if err != nil {
					errCount.Add(1)
					continue
				}
				okCount.Add(1)
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(startedAt)

	lat := make([]float64, 0, len(results))
	cached := 0
	backends := map[string]int{}
	cacheSources := map[string]int{}
	var sum float64
	for _, r := range results {
		lat = append(lat, r.latencyMS)
		sum += r.latencyMS
		if r.cached {
			cached++
		}
		if r.backend != "" {
			backends[r.backend]++
		}
		if r.cache != "" {
			cacheSources[r.cache]++
		}
	}
	sort.Float64s(lat)
	mean := 0.0
	if len(lat) > 0 {
		mean = sum / float64(len(lat))
	}

	affHits, _ := scrapeMetric(client, *gatewayURL, "pac_gw_affinity_hits_total")
	affMisses, _ := scrapeMetric(client, *gatewayURL, "pac_gw_affinity_misses_total")
	ratio := 1.0
	if affHits+affMisses > 0 {
		ratio = affHits / (affHits + affMisses)
	}

	report := map[string]any{
		"schema":          "pac-bench-cluster/v1",
		"generated":       time.Now().UTC().Format(time.RFC3339),
		"gateway":         *gatewayURL,
		"clients":         *clients,
		"requests":        *requests,
		"hotRatio":        *hotRatio,
		"hotKeys":         *hotKeys,
		"mode":            *mode,
		"ok":              okCount.Load(),
		"errors":          errCount.Load(),
		"throttled429":    throttled.Load(),
		"retries":         retried.Load(),
		"cachedHits":      cached,
		"durationSeconds": round2(elapsed.Seconds()),
		"throughputRPS":   round2(float64(okCount.Load()) / elapsed.Seconds()),
		"latencyMs": map[string]float64{
			"mean": round2(mean),
			"p50":  round2(percentile(lat, 0.50)),
			"p90":  round2(percentile(lat, 0.90)),
			"p99":  round2(percentile(lat, 0.99)),
			"max":  round2(percentile(lat, 1.0)),
		},
		"affinity": map[string]any{
			"hits":   affHits,
			"misses": affMisses,
			"ratio":  round4(ratio),
		},
		"backends": backends,
		// Per-source hit split from the X-Pac-Cache headers: how many
		// answers came from the session memo, the durable store, a fleet
		// peer's store, or a fresh simulation.
		"cacheSources": cacheSources,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr,
		"pacload: %d ok, %d errors, %d throttled in %.1fs — %.1f req/s, p99 %.1fms, affinity %.3f\n",
		okCount.Load(), errCount.Load(), throttled.Load(), elapsed.Seconds(),
		float64(okCount.Load())/elapsed.Seconds(), percentile(lat, 0.99), ratio)
	if len(cacheSources) > 0 {
		var parts []string
		for _, src := range []string{"memo", "disk", "peer", "miss"} {
			if n := cacheSources[src]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", src, n))
			}
		}
		fmt.Fprintf(os.Stderr, "pacload: cache sources: %s\n", strings.Join(parts, ", "))
	}
	if errCount.Load() > 0 {
		os.Exit(1)
	}
}

// issue posts one simulate request, honouring 429 Retry-After instead of
// hammering an overloaded fleet; the measured latency spans the whole
// request including backpressure waits (the latency a real client sees).
func issue(client *http.Client, url string, body []byte, maxRetry int,
	throttled, retried *atomic.Int64) (result, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return result{}, err
		}
		payload, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return result{}, rerr
		}
		switch {
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
			return result{
				latencyMS: float64(time.Since(start).Microseconds()) / 1000,
				cached:    bytes.Contains(payload, []byte(`"cached": true`)),
				backend:   resp.Header.Get("X-Pac-Backend"),
				cache:     resp.Header.Get("X-Pac-Cache"),
			}, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetry:
			throttled.Add(1)
			retried.Add(1)
			delay := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				delay = time.Duration(ra) * time.Second
			}
			time.Sleep(delay)
		default:
			return result{}, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
		}
	}
}

// followJob tails one job's server-sent events until the terminal done
// event. Dropped connections — a bounced gateway, a crashed-and-replayed
// backend — resume where they left off: the last seen event ID goes back
// as Last-Event-ID and the server replays only what was missed from its
// retention ring.
func followJob(base, jobID string) error {
	url := strings.TrimRight(base, "/") + "/v1/jobs/" + jobID + "/events"
	client := &http.Client{} // no timeout: the stream lives as long as the job
	lastID := ""
	for failures := 0; ; {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
			// A 404 right after a crash means the replayed job has not been
			// re-listed yet; keep retrying like a dropped connection.
		}
		if err != nil {
			failures++
			if failures > 30 {
				return fmt.Errorf("following %s: %w", jobID, err)
			}
			fmt.Fprintf(os.Stderr, "pacload: follow reconnect after error: %v\n", err)
			time.Sleep(time.Second)
			continue
		}
		failures = 0
		done, serr := streamEvents(resp.Body, &lastID)
		resp.Body.Close()
		if done {
			return nil
		}
		if serr != nil {
			fmt.Fprintf(os.Stderr, "pacload: follow stream broke, resuming after id %s: %v\n", lastID, serr)
		} else {
			fmt.Fprintf(os.Stderr, "pacload: follow stream ended early, resuming after id %s\n", lastID)
		}
		time.Sleep(time.Second)
	}
}

// streamEvents consumes one SSE connection, printing each event's data
// to stdout and tracking the last event ID for resume. It returns done
// once the terminal event arrives; any earlier disconnect leaves done
// false so the caller reconnects.
func streamEvents(r io.Reader, lastID *string) (done bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line dispatches the accumulated event
			if len(data) > 0 {
				fmt.Println(strings.Join(data, "\n"))
			}
			if event == "done" {
				return true, nil
			}
			event, data = "", nil
		case strings.HasPrefix(line, "id:"):
			*lastID = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[len("data:"):]))
		}
	}
	return false, sc.Err()
}

func simBody(bench, mode string, seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"benchmark": bench,
		"mode":      mode,
		"seed":      seed,
	})
	return b
}

// scrapeMetric reads one unlabeled series from the target's /metrics.
func scrapeMetric(client *http.Client, base, name string) (float64, bool) {
	resp, err := client.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pacload:", err)
	os.Exit(1)
}
