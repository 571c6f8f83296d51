// Command pacd is the resident PAC simulation service: it keeps one
// process-wide result cache warm across many small queries and exposes
// the experiment harness over an HTTP JSON API with Prometheus metrics.
//
// Usage:
//
//	pacd -addr :8080
//	pacd -addr :8080 -quick -pprof
//	pacd -cores 8 -accesses 100000 -parallel 8 -queue 32
//	pacd -store /var/lib/pacd -store-warm 256
//	pacd -store /var/lib/pacd -peers http://b1:8081,http://b2:8082
//
// With -store, completed simulation results persist in a crash-safe,
// content-addressed store under the given directory: restarts answer
// repeat requests from disk (and warm the session cache from the index,
// bounded by -store-warm), fleet peers exchange entries over GET
// /v1/store/{key}, and -store-max-bytes/-store-max-entries cap the
// on-disk footprint with LRU eviction.
//
// With -wal, every accepted job is journaled to a write-ahead log before
// it runs: a daemon killed mid-job replays the unfinished work at the
// next boot under the original job IDs. Add -checkpoint-dir and long
// simulations also persist periodic deterministic checkpoints, so the
// replay resumes mid-run instead of starting over (-checkpoint-interval
// sets the cadence in simulated cycles). See DESIGN.md §13.
//
// Endpoints (see internal/server and README "Running pacd"):
//
//	GET  /healthz    liveness
//	GET  /readyz     readiness (503 while booting or draining)
//	GET  /metrics    Prometheus text exposition
//	POST /v1/simulate, POST /v1/experiments/{id}/run, GET /v1/jobs/{id}, ...
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains the job
// queue (bounded by -drain-timeout), and exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/pacsim/pac"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cores        = flag.Int("cores", 8, "simulated cores of the default session")
		accesses     = flag.Int("accesses", 100_000, "trace length per core of the default session")
		scale        = flag.Float64("scale", 1.0, "working-set scale factor of the default session")
		seed         = flag.Uint64("seed", 42, "workload generator seed of the default session")
		quick        = flag.Bool("quick", false, "fast smoke configuration (small caches, short traces)")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation workers per experiment job")
		concurrency  = flag.Int("concurrency", runtime.GOMAXPROCS(0), "jobs executing at once")
		queue        = flag.Int("queue", 16, "bounded job queue depth (full queue answers 429)")
		maxSessions  = flag.Int("max-sessions", 8, "LRU cap on distinct-option result-cache sessions")
		reqTimeout   = flag.Duration("request-timeout", 60*time.Second, "cap on synchronous ?wait= windows")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-attempt watchdog deadline: abort job attempts running longer than this")
		maxRetries   = flag.Int("max-retries", 2, "retries per job after a watchdog kill, panic, or internal error (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		node         = flag.String("node", "", "node name within a pacgw fleet (sets X-Pac-Node and job attribution)")

		// Durable result store; empty -store keeps the daemon memory-only.
		storeDir     = flag.String("store", "", "directory of the durable content-addressed result store (empty disables)")
		storeWarm    = flag.Int("store-warm", 256, "max store entries that seed the session cache at boot (0 disables)")
		storeBytes   = flag.Int64("store-max-bytes", 1<<30, "byte cap on stored entries, LRU-evicted beyond it (negative = no cap)")
		storeEntries = flag.Int("store-max-entries", 1<<16, "count cap on stored entries, LRU-evicted beyond it (negative = no cap)")
		peers        = flag.String("peers", "", "comma-separated base URLs of fleet peers to ask on a store miss")

		// Crash-safe job durability; empty -wal keeps jobs in memory only.
		walPath   = flag.String("wal", "", "write-ahead job journal file; unfinished jobs replay at boot (empty disables)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for periodic sim checkpoints; replayed jobs resume mid-run (empty disables)")
		ckptEvery = flag.Int64("checkpoint-interval", 0, "simulated cycles between checkpoints (0 = default 2000000)")

		// Fault-plan flags of the default session; all zero (the default)
		// disables injection. Per-request plans arrive through the
		// POST /v1/simulate fault* fields instead.
		faultCRC           = flag.Float64("fault-crc-rate", 0, "per-packet link CRC error probability [0,1]")
		faultPoison        = flag.Float64("fault-poison-rate", 0, "per-packet poisoned-response probability [0,1]")
		faultStallInterval = flag.Int64("fault-stall-interval", 0, "mean cycles between vault ECC-scrub stalls (0 disables)")
		faultStallCycles   = flag.Int64("fault-stall-cycles", 0, "cycles a vault stays frozen per stall (0 = default 200)")
		faultSeed          = flag.Uint64("fault-seed", 0, "fault-plan seed, mixed with the workload seed")
	)
	flag.Parse()

	faults := pac.FaultConfig{
		LinkCRCRate:        *faultCRC,
		PoisonRate:         *faultPoison,
		VaultStallInterval: *faultStallInterval,
		VaultStallCycles:   *faultStallCycles,
		Seed:               *faultSeed,
	}
	if err := faults.Validate(); err != nil {
		fail(err)
	}

	opts := pac.ExperimentOptions{
		Cores:           *cores,
		AccessesPerCore: *accesses,
		Scale:           *scale,
		Seed:            *seed,
		Faults:          faults,
	}
	if *quick {
		opts.Cores = 2
		opts.AccessesPerCore = 5_000
		opts.Scale = 0.02
		opts.L1Bytes = 2 << 10
		opts.LLCBytes = 128 << 10
	}

	// One registry shared by the store and the server, so pac_store_* and
	// the serving metrics land in the same /metrics exposition.
	registry := pac.NewTelemetryRegistry()
	var resultStore *pac.Store
	if *storeDir != "" {
		var err error
		resultStore, err = pac.OpenStore(pac.StoreConfig{
			Dir:        *storeDir,
			MaxBytes:   *storeBytes,
			MaxEntries: *storeEntries,
			Registry:   registry,
		})
		if err != nil {
			fail(err)
		}
		log.Printf("pacd: store %s (%d entries, %d bytes)", *storeDir, resultStore.Len(), resultStore.Bytes())
	}
	var peerURLs []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerURLs = append(peerURLs, p)
		}
	}

	// The journal opens before the server so boot replay sees the orphans
	// of the previous process; it shares the registry for pac_wal_*.
	var (
		jobWAL    *pac.WAL
		recovered []pac.WALJob
	)
	if *walPath != "" {
		var err error
		jobWAL, recovered, err = pac.OpenWAL(pac.WALConfig{Path: *walPath, Registry: registry})
		if err != nil {
			fail(err)
		}
		if len(recovered) > 0 {
			log.Printf("pacd: wal %s recovered %d unfinished jobs", *walPath, len(recovered))
		} else {
			log.Printf("pacd: wal %s", *walPath)
		}
	}

	srv := pac.NewServer(pac.ServerConfig{
		Options:         opts,
		Parallel:        *parallel,
		Concurrency:     *concurrency,
		QueueDepth:      *queue,
		MaxSessions:     *maxSessions,
		RequestTimeout:  *reqTimeout,
		JobTimeout:      *jobTimeout,
		MaxRetries:      *maxRetries,
		EnablePprof:     *pprofOn,
		NodeID:          *node,
		Registry:        registry,
		Store:           resultStore,
		StoreWarm:       *storeWarm,
		Peers:           peerURLs,
		WAL:             jobWAL,
		Recovered:       recovered,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
	})
	if resultStore != nil {
		if v, ok := srv.Registry().Value("pac_store_warmed_total"); ok {
			log.Printf("pacd: store warm-up seeded %d session entries", int(v))
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("pacd: serving on %s (cores=%d accesses=%d scale=%.2f parallel=%d queue=%d)",
		*addr, opts.Cores, opts.AccessesPerCore, opts.Scale, *parallel, *queue)

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let the job
	// queue unwind before exiting.
	log.Printf("pacd: shutdown signal, draining (timeout %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("pacd: http shutdown: %v", err)
	}
	if err := srv.Drain(drainCtx); err != nil {
		if resultStore != nil {
			resultStore.Close() // best-effort durability even on a bad drain
		}
		if jobWAL != nil {
			jobWAL.Close() // the jobs the drain abandoned replay next boot
		}
		fail(fmt.Errorf("drain: %w", err))
	}
	if resultStore != nil {
		// Flush after the drain so the write-throughs of the last in-flight
		// jobs are in the index; Close compacts and fsyncs the journal, so
		// the next boot replays a clean one-record-per-entry index. (An
		// unclean kill is still safe — entry files are committed by rename
		// and orphans are re-adopted — this just makes clean exits cheap.)
		if err := resultStore.Flush(); err != nil {
			log.Printf("pacd: store flush: %v", err)
		}
		if err := resultStore.Close(); err != nil {
			log.Printf("pacd: store close: %v", err)
		}
	}
	if jobWAL != nil {
		// After a clean drain every journaled job has its terminal record;
		// Flush compacts the journal so the next boot replays nothing.
		if err := jobWAL.Flush(); err != nil {
			log.Printf("pacd: wal flush: %v", err)
		}
		if err := jobWAL.Close(); err != nil {
			log.Printf("pacd: wal close: %v", err)
		}
	}
	log.Printf("pacd: drained cleanly")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pacd:", err)
	os.Exit(1)
}
