// Command bench is the kernel-scale gate: one pass over one preset-sized
// synthetic snapshot (renren-100k by default, the repo's stand-in for the
// paper's million-node Renren snapshots) that writes one flat list of rows.
//
//	sweep/<preset>/<alg>/w=<n>             pruned top-k sweep, ns/op
//	shard/<preset>/<alg>/w=<n>/s=<shards>  scatter/gather: slowest shard + merge, ns/op
//	mem/<preset>/full                      resident adjacency bytes of the snapshot
//	publish/renren/rebuild                 snapshot rebuilt from scratch, ns/op
//	publish/renren/b=<batch>               one delta publish, ns/op
//	publish/renren/b=<batch>/allocs        mallocs per delta publish
//
// Byte and alloc rows are exact — functions of the trace and the batch
// schedule, not of the machine — and -compare fails when one grows more
// than 10% over the baseline file. Timing rows print old -> new and never
// gate. The run itself fails when an algorithm predicts nothing or when the
// merged sharded top-k differs from the single sweep.
//
// Usage:
//
//	bench -out BENCH_predict.json            # re-baseline (full timing, minutes)
//	bench -short -compare BENCH_predict.json # what CI runs
//
// Per-algorithm timings at unit-test scale are BenchmarkPredictParallel's
// (go test -bench PredictParallel ./internal/predict/).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/predict"
)

// row is the one measurement schema: every section emits rows, the file is
// a list of rows, and compare matches rows by key.
type row struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
	Unit  string `json:"unit"`
	Exact bool   `json:"exact,omitempty"`
}

// report is the file: the producing configuration and machine, then rows.
type report struct {
	Preset     string `json:"preset"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	K          int    `json:"k"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rows       []row  `json:"rows"`
}

func (r *report) add(key string, value int64, unit string, exact bool) {
	r.Rows = append(r.Rows, row{key, value, unit, exact})
	fmt.Printf("%-40s %14d %s\n", key, value, unit)
}

type config struct {
	preset       string
	seed         int64
	k            int
	algs, shards string
	short        bool
}

var defaults = config{preset: "renren-100k", seed: 1, k: 200, algs: "CN,JC,AA", shards: "2,4"}

// compare prints old -> new for every key both sides carry and returns how
// many exact rows grew more than 10% (cur·10 > old·11). Keys on one side
// only are ignored. A comparison that shares no exact key gated nothing, and
// that is a failure too — not a pass.
func compare(old, cur []row) (failed int) {
	prev := make(map[string]row, len(old))
	for _, o := range old {
		prev[o.Key] = o
	}
	shared := 0
	for _, c := range cur {
		o, ok := prev[c.Key]
		if !ok {
			continue
		}
		tag := ""
		if o.Exact && c.Exact {
			shared++
			if c.Value*10 > o.Value*11 {
				failed++
				tag = "  FAIL: exact row grew more than 10%"
			}
		}
		fmt.Printf("%-40s %14d -> %14d %s%s\n", c.Key, o.Value, c.Value, c.Unit, tag)
	}
	if shared == 0 {
		failed++
		fmt.Printf("FAIL: the baseline's %d keys and this run's %d share no exact row; nothing was gated\n", len(old), len(cur))
	}
	return failed
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// measure returns fn's mean ns/op over 2 s of samples (at most 50); -short
// takes one sample.
func measure(short bool, fn func()) int64 {
	var total time.Duration
	iters := 0
	for {
		start := time.Now()
		fn()
		total += time.Since(start)
		iters++
		if short || total >= 2*time.Second || iters == 50 {
			return total.Nanoseconds() / int64(iters)
		}
	}
}

// setup parses the shard counts, generates the preset and returns its
// second-to-last cut.
func setup(c config) (g *graph.Graph, shardCounts []int, err error) {
	for _, s := range strings.Split(c.shards, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return nil, nil, fmt.Errorf("-shards: bad count %q", s)
		}
		shardCounts = append(shardCounts, v)
	}
	cfg, err := gen.ByName(c.preset, c.seed)
	if err != nil {
		return nil, nil, err
	}
	tr := gen.MustGenerate(cfg)
	cuts := tr.Cuts(gen.DefaultDelta(cfg))
	return tr.SnapshotAtEdge(cuts[len(cuts)-2].EdgeCount), shardCounts, nil
}

// sweepRows times, per algorithm and worker count, the unrestricted sweep
// and the cluster's scatter/gather path in process (DESIGN.md §12): one
// range-restricted Predict per source shard at the boundaries a cluster
// worker derives for that algorithm, plus the MergeTopK fold. Shards run
// one after another here and side by side in a cluster, so the row is the
// slowest shard plus the merge.
func sweepRows(r *report, g *graph.Graph, c config, shardCounts []int) error {
	workers := slices.Compact([]int{1, runtime.GOMAXPROCS(0)})
	for _, name := range strings.Split(c.algs, ",") {
		alg, err := predict.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		for _, w := range workers {
			opt := predict.DefaultOptions()
			opt.Workers = w
			single := alg.Predict(g, c.k, opt) // also warms the per-snapshot artifacts
			if len(single) == 0 {
				return fmt.Errorf("%s produced no predictions", alg.Name())
			}
			cell := fmt.Sprintf("%s/%s/w=%d", c.preset, alg.Name(), w)
			r.add("sweep/"+cell, measure(c.short, func() { alg.Predict(g, c.k, opt) }), "ns", false)
			for _, shards := range shardCounts {
				parts := make([][]predict.Pair, shards)
				var slowest int64
				for s, sr := range predict.WeightedSourceRangesFor(g, shards, predict.CostModelFor(alg.Name())) {
					sOpt := opt
					sOpt.SourceRange = &sr
					slowest = max(slowest, measure(c.short, func() { parts[s] = alg.Predict(g, c.k, sOpt) }))
				}
				if !slices.Equal(predict.MergeTopK(parts, c.k, opt.Seed), single) {
					return fmt.Errorf("%s s=%d: merged sharded top-k differs from the single sweep", cell, shards)
				}
				merge := measure(c.short, func() { predict.MergeTopK(parts, c.k, opt.Seed) })
				r.add(fmt.Sprintf("shard/%s/s=%d", cell, shards), slowest+merge, "ns", false)
			}
		}
	}
	return nil
}

// memRows records the resident adjacency bytes of the snapshot.
func memRows(r *report, g *graph.Graph, c config) {
	r.add("mem/"+c.preset+"/full", g.ResidentBytes(), "bytes", true)
}

// publishRows measures the delta publish (copy-on-write row patching,
// DESIGN.md §13) on renren@0.2: an incremental builder warmed on half the
// trace, then advanced one batch per publish to the end, against rebuilding
// the final snapshot from scratch. Mallocs are counted across the whole
// loop and divided per publish — the exact row; the timings are context.
func publishRows(r *report, c config) {
	tr := gen.MustGenerate(gen.Renren(c.seed).Scaled(0.2))
	total := len(tr.Edges)
	r.add("publish/renren/rebuild", measure(c.short, func() { tr.SnapshotAtEdge(total) }), "ns", false)
	for _, batch := range []int{64, 256} {
		b := graph.NewIncrementalBuilder(tr)
		b.AtEdge(total / 2)
		var publishes int64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for m := total/2 + batch; m <= total; m += batch {
			b.AtEdge(m)
			publishes++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		key := fmt.Sprintf("publish/renren/b=%d", batch)
		r.add(key, elapsed.Nanoseconds()/publishes, "ns", false)
		r.add(key+"/allocs", int64(after.Mallocs-before.Mallocs)/publishes, "count", true)
	}
}

// run is the one pass: generate the preset once, then the three sections.
func run(c config) (*report, error) {
	g, shardCounts, err := setup(c)
	if err != nil {
		return nil, err
	}
	r := &report{
		Preset: c.preset, Nodes: g.NumNodes(), Edges: g.NumEdges(), K: c.k,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	fmt.Printf("%s: %d nodes, %d edges, k=%d\n", c.preset, r.Nodes, r.Edges, c.k)
	if err := sweepRows(r, g, c, shardCounts); err != nil {
		return nil, err
	}
	memRows(r, g, c)
	publishRows(r, c)
	return r, nil
}

func main() {
	c := defaults
	flag.StringVar(&c.preset, "preset", c.preset, "graph preset: facebook, youtube, renren, renren-100k, renren-1m")
	flag.Int64Var(&c.seed, "seed", c.seed, "generation seed")
	flag.IntVar(&c.k, "k", c.k, "top-k prediction budget")
	flag.StringVar(&c.algs, "algs", c.algs, "comma-separated algorithms for the sweep and shard rows")
	flag.StringVar(&c.shards, "shards", c.shards, "comma-separated shard counts for the shard rows")
	flag.BoolVar(&c.short, "short", false, "one timing sample per cell instead of 2 s; exact rows are unaffected")
	out := flag.String("out", "", "write the rows to this JSON file")
	baseline := flag.String("compare", "", "baseline file: fail when an exact row grew more than 10% over it")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	var old *report
	if *baseline != "" {
		var err error
		if old, err = load(*baseline); err != nil {
			fail(err)
		}
	}
	r, err := run(c)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if old != nil {
		fmt.Printf("\ncomparing against %s (%s, gomaxprocs %d)\n", *baseline, old.GoVersion, old.GOMAXPROCS)
		if n := compare(old.Rows, r.Rows); n > 0 {
			fail(fmt.Errorf("%d exact-row failure(s) against %s", n, *baseline))
		}
	}
}
