// Command linkpredr is the cluster router: a thin scatter/gather front for
// N linkpredd workers, each owning one contiguous source-node shard of the
// candidate universe (DESIGN.md §12). It exposes the same HTTP surface as a
// single worker, so clients see one big server:
//
//   - /predict scatters the query to every shard with shard=i&shards=N,
//     gathers same-epoch partial top-k lists (re-asking stragglers), and
//     merges them with the engine's seeded tie-break — bit-identical to a
//     single-process sweep. Dead or persistently misaligned shards yield
//     partial:true plus the missing source ranges.
//   - /ingest replicates each event batch to every shard in serialized
//     order, keeping snapshot cadence — and therefore epochs — aligned.
//   - /score forwards to one shard round-robin (any shard holds the full
//     graph); /flush publishes everywhere; /healthz aggregates, flagging
//     shards that restarted from their write-ahead log (linkpredd -wal-dir)
//     and are still behind the replicated stream as catching_up — their
//     ranges serve partial until the ingest delta is replayed and the
//     trace lengths realign.
//
// Usage:
//
//	linkpredr -addr :8080 -shard http://127.0.0.1:8081 -shard http://127.0.0.1:8082
//	linkpredr -hedge-after 100ms -epoch-retries 6 -timeout 5s
//	linkpredr -metrics-out router-metrics.json
//	linkpredr -eval                                # router-side prequential evaluation of merged rankings
//
// -seed must match the workers' -seed: the merge breaks score ties with the
// same seeded hash the shards ranked by.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"linkpred/internal/cluster"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/serve"
)

// shardList collects repeated -shard flags in order; the flag order IS the
// shard-index assignment.
type shardList []string

func (s *shardList) String() string { return fmt.Sprint(*s) }

func (s *shardList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var shards shardList
	addr := flag.String("addr", ":8080", "HTTP listen address")
	flag.Var(&shards, "shard", "worker base URL; repeat once per shard, in shard order")
	seed := flag.Int64("seed", 1, "tie-break seed; must equal the workers' -seed")
	timeout := flag.Duration("timeout", 10*time.Second, "default scatter/gather budget (explicit timeout_ms wins)")
	hedgeAfter := flag.Duration("hedge-after", 150*time.Millisecond, "delay before hedging a straggling shard (negative disables)")
	epochRetries := flag.Int("epoch-retries", 4, "re-asks of a stale shard before serving a partial response")
	epochBackoff := flag.Duration("epoch-backoff", 25*time.Millisecond, "wait between epoch re-asks")
	obsOn := flag.Bool("obs", true, "enable telemetry counters (served at /metrics)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry report as JSON to this path periodically and at shutdown; implies -obs")
	metricsEvery := flag.Duration("metrics-every", 30*time.Second, "rewrite -metrics-out on this period")
	evalOn := flag.Bool("eval", false, "router-side prequential evaluation: score replicated ingest edges against merged predict rankings (served in /metrics)")
	evalTopK := flag.Int("eval-topk", 128, "ranked pairs retained per recorded merged prediction set")
	evalWindow := flag.Int("eval-window", 1024, "sliding window (scored edges) for windowed hit rate and AUPR")
	flag.Parse()

	if len(shards) == 0 {
		fail(fmt.Errorf("at least one -shard is required"))
	}
	obs.Enable(*obsOn || *metricsOut != "")

	ccfg := cluster.Config{
		Shards:       shards,
		Seed:         *seed,
		Timeout:      *timeout,
		HedgeAfter:   *hedgeAfter,
		EpochRetries: *epochRetries,
		EpochBackoff: *epochBackoff,
	}
	if *evalOn {
		ccfg.Eval = liveeval.New(liveeval.Config{TopK: *evalTopK, Window: *evalWindow})
	}
	router := cluster.New(ccfg)

	stopDump := func() {}
	if *metricsOut != "" {
		stopDump = obs.DumpEvery(*metricsOut, *metricsEvery)
	}

	hs := serve.NewHTTPServer(*addr, router.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("linkpredr: routing %d shards on %s (seed %d, hedge %v, epoch retries %d)\n",
		len(shards), *addr, *seed, *hedgeAfter, *epochRetries)
	for i, s := range shards {
		fmt.Printf("linkpredr: shard %d -> %s\n", i, s)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		stopDump()
		fail(err)
	case sig := <-sigc:
		fmt.Printf("linkpredr: %v, shutting down\n", sig)
		hs.Close()
		stopDump()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "linkpredr:", err)
	os.Exit(1)
}
