// Command linkpredd is the live link-prediction server. It ingests
// timestamped edge events over HTTP, folds them into a growing trace via
// the incremental snapshot builder, publishes immutable snapshots on a
// configurable cadence, and answers top-k and pair-score queries from a
// bounded worker pool with per-request deadlines, coalesced pair-score
// sweeps, backpressure, and graceful degradation of latent-family
// algorithms under load. With live evaluation on (the default), every
// /predict response is recorded into a prequential engine and every
// subsequently ingested edge is scored against it, so /metrics carries
// measured hit@k, MRR, and precision per algorithm — and the degradation
// controller routes to the proxy with the best measured accuracy per unit
// cost.
//
// Usage:
//
//	linkpredd -addr :8080
//	linkpredd -addr :8080 -trace renren.trace            # warm start
//	linkpredd -snapshot-every 256 -workers 4 -queue 512
//	linkpredd -degrade-p95 100ms -recover-after 32
//	linkpredd -eval-topk 64 -eval-window 512              # prequential tuning
//	linkpredd -metrics-out metrics.json -metrics-every 15s
//	linkpredd -wal-dir /var/lib/linkpred/wal              # durable ingest (DESIGN.md §14)
//	linkpredd -wal-dir ... -recover                       # replay checkpoint + log after a crash
//	linkpredd -wal-dir ... -checkpoint-every 8192
//
// API (see internal/serve and DESIGN.md §9, §11):
//
//	GET  /predict?alg=CN&k=50[&timeout_ms=200]
//	POST /score   {"alg":"AA","pairs":[[u,v],...]}
//	POST /ingest  {"events":[{"u":1,"v":2,"t":10},...]}
//	POST /flush
//	GET  /healthz
//	GET  /metrics                — JSON telemetry dump
//	GET  /metrics?format=prom    — Prometheus text exposition (0.0.4)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/serve"
	"linkpred/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	tracePath := flag.String("trace", "", "warm-start trace file written by tracegen (optional)")
	snapshotEvery := flag.Int("snapshot-every", 512, "publish a snapshot every N accepted edges")
	workers := flag.Int("workers", 2, "scoring worker pool size")
	engineWorkers := flag.Int("engine-workers", 1, "engine parallelism per request")
	queue := flag.Int("queue", 256, "request queue bound (full queue returns 429)")
	batch := flag.Int("batch", 16, "max same-algorithm score requests coalesced per sweep")
	warm := flag.Bool("warm", true, "prebuild snapshot artifacts off the request path after publish")
	degradeP95 := flag.Duration("degrade-p95", 250*time.Millisecond, "rolling p95 latency that trips degradation")
	degradeQueue := flag.Int("degrade-queue", 0, "queue depth that trips degradation (0 = 3/4 of -queue)")
	recoverAfter := flag.Int("recover-after", 16, "consecutive healthy sweeps before the latent path re-enables")
	noDegrade := flag.Bool("no-degrade", false, "disable graceful degradation")
	seed := flag.Int64("seed", 1, "tie-break seed (fixes ranked output across restarts)")
	obsOn := flag.Bool("obs", true, "enable telemetry counters (served at /metrics)")
	evalOn := flag.Bool("eval", true, "prequential live evaluation: score ingested edges against served predictions")
	evalTopK := flag.Int("eval-topk", 128, "ranked pairs retained per recorded prediction set")
	evalWindow := flag.Int("eval-window", 1024, "sliding window (scored edges) for windowed hit rate and AUPR")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: every accepted ingest event is fsynced here before it is acked, so acked events survive a crash (DESIGN.md §14)")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "with -wal-dir: write a checkpoint snapshot after the replay horizon grows by N edges (negative disables)")
	recoverWAL := flag.Bool("recover", false, "with -wal-dir: allow booting from a non-empty log directory, replaying checkpoint + tail and resuming at the recovered position; without it existing state is an error, so a stale directory is never reused silently")
	metricsOut := flag.String("metrics-out", "", "write the telemetry report as JSON to this path periodically and at shutdown; implies -obs")
	metricsEvery := flag.Duration("metrics-every", 30*time.Second, "rewrite -metrics-out on this period")
	flag.Parse()

	obs.Enable(*obsOn || *metricsOut != "")

	var tr *graph.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		tr, err = graph.ReadTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("linkpredd: warm start from %s: %d nodes, %d edges\n", *tracePath, tr.NumNodes(), tr.NumEdges())
	}

	cfg := serve.Config{
		SnapshotEvery: *snapshotEvery,
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxBatch:      *batch,
		Warm:          *warm,
		Trace:         tr,
		Degrade: serve.DegradeConfig{
			P95:          *degradeP95,
			QueueDepth:   *degradeQueue,
			RecoverAfter: *recoverAfter,
			Disabled:     *noDegrade,
		},
	}
	cfg.Opt.Seed = *seed
	cfg.Opt.Workers = *engineWorkers
	if *evalOn {
		cfg.Eval = liveeval.New(liveeval.Config{TopK: *evalTopK, Window: *evalWindow})
	}
	if *walDir != "" {
		st, err := wal.NewDirStorage(*walDir)
		if err != nil {
			fail(err)
		}
		names, err := st.List()
		if err != nil {
			fail(err)
		}
		if len(names) > 0 && !*recoverWAL {
			fail(fmt.Errorf("wal dir %s holds existing state (%d files); pass -recover to replay it", *walDir, len(names)))
		}
		cfg.WAL = st
		cfg.CheckpointEvery = *checkpointEvery
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	if *walDir != "" {
		if w := srv.Health().WAL; w != nil {
			fmt.Printf("linkpredd: wal %s: recovered %d edges (%d replayed from log, checkpoint at %d, truncated=%v)\n",
				*walDir, w.RecoveredEdges, w.RecoveredTail, w.CheckpointEdges, w.Truncated)
		}
	}

	stopDump := func() {}
	if *metricsOut != "" {
		stopDump = obs.DumpEvery(*metricsOut, *metricsEvery)
	}

	hs := serve.NewHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("linkpredd: serving on %s (snapshot every %d edges, %d workers, queue %d, eval %v)\n",
		*addr, *snapshotEvery, *workers, *queue, *evalOn)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		stopDump()
		fail(err)
	case sig := <-sigc:
		fmt.Printf("linkpredd: %v, shutting down\n", sig)
		hs.Close()
		stopDump()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "linkpredd:", err)
	os.Exit(1)
}
