// Command bench times full top-k prediction for every evaluated algorithm
// at 1 worker and at N workers on one synthetic snapshot, and writes the
// timings to a JSON file. It is the machine-readable companion of
// BenchmarkPredictParallel: CI and the docs consume the emitted file to
// track the parallel engine's speedup across hardware.
//
// Usage:
//
//	bench                         # renren @ 0.2, GOMAXPROCS workers
//	bench -preset youtube -scale 0.1 -workers 8 -out BENCH_predict.json
//	bench -compare old.json       # measure, then diff against a previous file
//	bench -algs Katz,Rescal,LRW   # benchmark a subset by name
//	bench -scaling renren-100k    # local family at the preset's native size
//	bench -short -scaling renren-100k -compare BENCH_predict.json
//
// The renren-100k and renren-1m presets are pre-sized (use -scale 1 with
// them); -scaling generates each named preset at its native size and times
// the local metrics' pruned candidate engine on it (its bit-identity with
// an exhaustive sweep is pinned by internal/predict's oracle tests).
// -compare flags any algorithm regressing more than 10% against a previous
// file; -fail-on-regress turns that into a nonzero exit for CI.
//
// Each algorithm is warmed once before timing, so per-snapshot cached
// artifacts (degree order, latent factor matrices — see internal/snapcache)
// are built outside the timed loop: the latent-family rows measure scoring
// against warm factors, the steady state of an evaluation sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// result is one (algorithm, workers) timing row of BENCH_predict.json.
type result struct {
	Algorithm string  `json:"algorithm"`
	Workers   int     `json:"workers"`
	NsPerOp   int64   `json:"ns_per_op"`
	Speedup   float64 `json:"speedup_vs_serial"`
}

// scalingResult is one (preset, algorithm, workers) row of the -scaling
// sweep: the pruned candidate engine timed on a preset-sized graph.
type scalingResult struct {
	Preset    string `json:"preset"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Algorithm string `json:"algorithm"`
	Workers   int    `json:"workers"`
	PrunedNs  int64  `json:"pruned_ns_per_op"`
	// AllPairsNs times scoring every one of the N(N-1)/2 pairs through the
	// batch path (-allpairs) — the O(N²) wall the candidate engine escapes.
	AllPairsNs      int64   `json:"all_pairs_ns_per_op,omitempty"`
	SpeedupAllPairs float64 `json:"speedup_vs_all_pairs,omitempty"`
}

// shardResult is one (preset, algorithm, workers, shards) row of the
// -shards sweep: the source-sharded scatter/gather path (DESIGN.md §12)
// timed against the unrestricted single sweep. Each shard's restricted
// Predict is timed on its own and the simulated cluster wall-clock is
// max(per-shard ns) + merge ns — the honest model for one-machine
// measurement of an N-machine deployment (shards run concurrently on
// separate workers in production, sequentially here).
type shardResult struct {
	Preset    string `json:"preset"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Algorithm string `json:"algorithm"`
	Workers   int    `json:"workers"`
	Shards    int    `json:"shards"`
	// SingleNs is the unrestricted sweep; MaxShardNs/SumShardNs the
	// slowest and total per-shard restricted sweeps; MergeNs the
	// gather-side MergeTopK fold of the partial lists.
	SingleNs   int64 `json:"single_ns_per_op"`
	MaxShardNs int64 `json:"max_shard_ns_per_op"`
	SumShardNs int64 `json:"sum_shard_ns_per_op"`
	MergeNs    int64 `json:"merge_ns_per_op"`
	WallNs     int64 `json:"wall_ns_per_op"`
	// Speedup is SingleNs / WallNs — the scale-out win at this shard
	// count, net of merge overhead and shard imbalance.
	Speedup float64 `json:"speedup_vs_single"`
	// Identical confirms the merged top-k is bit-identical to the single
	// sweep — the cluster's core determinism contract.
	Identical bool `json:"identical_topk"`
}

// memoryResult is one (preset, shards, shard) row of the -partition memory
// sweep: the resident adjacency bytes of one ownership-partitioned shard
// (graph.PartitionView at the wedge-weighted boundaries) against the full
// snapshot, plus the merged-top-k identity check that makes the smaller
// footprint trustworthy. Shard 0 saves nothing by construction — its
// min-endpoint rows are the duplicate detector — so read the per-shard
// fractions, not an average (DESIGN.md §13).
type memoryResult struct {
	Preset           string  `json:"preset"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Shards           int     `json:"shards"`
	Shard            int     `json:"shard"`
	RangeLo          int     `json:"range_lo"`
	RangeHi          int     `json:"range_hi"`
	FullBytes        int64   `json:"full_bytes"`
	PartitionedBytes int64   `json:"partitioned_bytes"`
	Fraction         float64 `json:"fraction_of_full"`
	Identical        bool    `json:"identical_topk"`
}

// publishResult is one batch-size row of the -publish sweep: the
// incremental builder's delta publish (copy-on-write row patching,
// DESIGN.md §13) timed and allocation-counted against rebuilding the
// snapshot from scratch. AllocsPerOp is the regression-gated number — it
// is a deterministic function of the trace and batch schedule, unlike the
// timings, so CI compares counts, never times.
type publishResult struct {
	Preset      string  `json:"preset"`
	Edges       int     `json:"edges"`
	Batch       int     `json:"batch"`
	Publishes   int     `json:"publishes"`
	DeltaNs     int64   `json:"delta_publish_ns_per_op"`
	RebuildNs   int64   `json:"rebuild_ns_per_op"`
	Speedup     float64 `json:"speedup_vs_rebuild"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	DeltaRows   float64 `json:"delta_rows_per_op"`
}

// output is the file-level schema. The metadata fields stamp which build
// and machine produced the numbers, so checked-in BENCH_predict.json files
// from different runs stay comparable.
type output struct {
	Preset     string    `json:"preset"`
	Scale      float64   `json:"scale"`
	Nodes      int       `json:"nodes"`
	Edges      int       `json:"edges"`
	K          int       `json:"k"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	GitSHA     string    `json:"git_sha,omitempty"`
	Timestamp  time.Time `json:"timestamp"`
	Results    []result  `json:"results"`
	// Scaling holds the -scaling sweep rows; each row carries its own
	// preset and graph size, so rows from different scale points coexist
	// in one file.
	Scaling []scalingResult `json:"scaling,omitempty"`
	// Sharded holds the -shards scatter/gather rows.
	Sharded []shardResult `json:"sharded,omitempty"`
	// Memory holds the -partition per-shard residency rows; Publish the
	// -publish delta-publish rows.
	Memory  []memoryResult  `json:"memory,omitempty"`
	Publish []publishResult `json:"publish,omitempty"`
	// Telemetry carries the obs dump when collection was enabled (-obs,
	// -debug-addr or -progress), exposing per-algorithm latency histograms
	// and engine chunk-claim counts next to the wall-clock timings.
	Telemetry *obs.Dump `json:"telemetry,omitempty"`
}

// gitSHA resolves the commit of the running binary: the VCS stamp embedded
// by `go build` when available, otherwise the working tree HEAD, otherwise
// empty (the field is omitted).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return ""
}

// loadOutput reads a previously written BENCH_predict.json.
func loadOutput(path string) (*output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o output
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &o, nil
}

// compareOutputs diffs two benchmark files row by row on the
// (algorithm, workers) key and prints per-algorithm speedup (old/new > 1)
// or regression (< 1). Rows present in only one file are listed as such.
// It returns the number of regressions beyond the noise threshold, and
// separately the deterministic subset (memory/publish rows: resident bytes
// and alloc counts are machine-independent, so those regressions are safe
// to gate CI on even when the timing rows came from different hardware).
func compareOutputs(w io.Writer, old, cur *output, threshold float64) (regressions, deterministic int) {
	type cell struct {
		alg     string
		workers int
	}
	prev := make(map[cell]int64, len(old.Results))
	for _, r := range old.Results {
		prev[cell{r.Algorithm, r.Workers}] = r.NsPerOp
	}
	if old.Preset != cur.Preset || old.Scale != cur.Scale {
		// Main rows time different graphs — ratios would be noise, and a
		// REGRESSION tag on them would be a lie. The scaling rows carry
		// their own preset per row, so those still compare.
		fmt.Fprintf(w, "note: main configs differ (old %s@%g, new %s@%g); skipping main rows\n",
			old.Preset, old.Scale, cur.Preset, cur.Scale)
		det := compareMemory(w, old, cur, threshold) + comparePublish(w, old, cur, threshold)
		return compareScaling(w, old, cur, threshold) + compareSharded(w, old, cur, threshold) + det, det
	}
	if old.GOMAXPROCS != cur.GOMAXPROCS {
		fmt.Fprintf(w, "note: GOMAXPROCS differs (old %d, new %d); parallel-row ratios are cross-machine\n",
			old.GOMAXPROCS, cur.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-10s %-9s %14s %14s %9s\n", "algorithm", "workers", "old ns/op", "new ns/op", "old/new")
	for _, r := range cur.Results {
		oldNs, ok := prev[cell{r.Algorithm, r.Workers}]
		if !ok {
			fmt.Fprintf(w, "%-10s workers=%-2d %14s %14d %9s\n", r.Algorithm, r.Workers, "-", r.NsPerOp, "new")
			continue
		}
		delete(prev, cell{r.Algorithm, r.Workers})
		ratio := 0.0
		if r.NsPerOp > 0 {
			ratio = float64(oldNs) / float64(r.NsPerOp)
		}
		tag := ""
		if ratio < threshold {
			tag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-10s workers=%-2d %14d %14d %8.2fx%s\n", r.Algorithm, r.Workers, oldNs, r.NsPerOp, ratio, tag)
	}
	for c := range prev {
		fmt.Fprintf(w, "%-10s workers=%-2d only in old file\n", c.alg, c.workers)
	}
	regressions += compareScaling(w, old, cur, threshold)
	regressions += compareSharded(w, old, cur, threshold)
	deterministic = compareMemory(w, old, cur, threshold) + comparePublish(w, old, cur, threshold)
	regressions += deterministic
	return regressions, deterministic
}

// compareMemory diffs the -partition rows on (preset, shards, shard).
// Resident bytes are a deterministic function of the snapshot and the
// boundaries, so any growth beyond the threshold is a real footprint
// regression, not timing noise.
func compareMemory(w io.Writer, old, cur *output, threshold float64) int {
	if len(old.Memory) == 0 || len(cur.Memory) == 0 {
		return 0
	}
	type cell struct {
		preset string
		shards int
		shard  int
	}
	prev := make(map[cell]int64, len(old.Memory))
	for _, r := range old.Memory {
		prev[cell{r.Preset, r.Shards, r.Shard}] = r.PartitionedBytes
	}
	regressions := 0
	fmt.Fprintf(w, "\nmemory rows (partitioned resident bytes):\n")
	fmt.Fprintf(w, "%-12s %-8s %-7s %14s %14s %9s\n", "preset", "shards", "shard", "old bytes", "new bytes", "old/new")
	for _, r := range cur.Memory {
		oldB, ok := prev[cell{r.Preset, r.Shards, r.Shard}]
		if !ok {
			fmt.Fprintf(w, "%-12s shards=%-2d shard=%-2d %14s %14d %9s\n", r.Preset, r.Shards, r.Shard, "-", r.PartitionedBytes, "new")
			continue
		}
		ratio := 0.0
		if r.PartitionedBytes > 0 {
			ratio = float64(oldB) / float64(r.PartitionedBytes)
		}
		tag := ""
		if ratio < threshold {
			tag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-12s shards=%-2d shard=%-2d %14d %14d %8.2fx%s\n", r.Preset, r.Shards, r.Shard, oldB, r.PartitionedBytes, ratio, tag)
	}
	return regressions
}

// comparePublish diffs the -publish rows on (preset, batch), gating on the
// allocation COUNT per publish — deterministic for a fixed trace and batch
// schedule — never on the timings, which vary with the machine.
func comparePublish(w io.Writer, old, cur *output, threshold float64) int {
	if len(old.Publish) == 0 || len(cur.Publish) == 0 {
		return 0
	}
	type cell struct {
		preset string
		batch  int
	}
	prev := make(map[cell]int64, len(old.Publish))
	for _, r := range old.Publish {
		prev[cell{r.Preset, r.Batch}] = r.AllocsPerOp
	}
	regressions := 0
	fmt.Fprintf(w, "\npublish rows (allocs per delta publish):\n")
	fmt.Fprintf(w, "%-12s %-10s %14s %14s %9s\n", "preset", "batch", "old allocs", "new allocs", "old/new")
	for _, r := range cur.Publish {
		oldA, ok := prev[cell{r.Preset, r.Batch}]
		if !ok {
			fmt.Fprintf(w, "%-12s batch=%-5d %14s %14d %9s\n", r.Preset, r.Batch, "-", r.AllocsPerOp, "new")
			continue
		}
		ratio := 0.0
		if r.AllocsPerOp > 0 {
			ratio = float64(oldA) / float64(r.AllocsPerOp)
		}
		tag := ""
		if ratio < threshold {
			tag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-12s batch=%-5d %14d %14d %8.2fx%s\n", r.Preset, r.Batch, oldA, r.AllocsPerOp, ratio, tag)
	}
	return regressions
}

// compareScaling diffs the -scaling rows on the (preset, algorithm, workers)
// key. The pruned timing is the tracked number; rows carry their own preset,
// so they compare apples-to-apples even when the files' main configs differ.
func compareScaling(w io.Writer, old, cur *output, threshold float64) int {
	if len(old.Scaling) == 0 || len(cur.Scaling) == 0 {
		return 0
	}
	type cell struct {
		preset  string
		alg     string
		workers int
	}
	prev := make(map[cell]int64, len(old.Scaling))
	for _, r := range old.Scaling {
		prev[cell{r.Preset, r.Algorithm, r.Workers}] = r.PrunedNs
	}
	regressions := 0
	fmt.Fprintf(w, "\nscaling rows (pruned ns/op):\n")
	fmt.Fprintf(w, "%-12s %-10s %-9s %14s %14s %9s\n", "preset", "algorithm", "workers", "old ns/op", "new ns/op", "old/new")
	for _, r := range cur.Scaling {
		oldNs, ok := prev[cell{r.Preset, r.Algorithm, r.Workers}]
		if !ok {
			fmt.Fprintf(w, "%-12s %-10s workers=%-2d %14s %14d %9s\n", r.Preset, r.Algorithm, r.Workers, "-", r.PrunedNs, "new")
			continue
		}
		ratio := 0.0
		if r.PrunedNs > 0 {
			ratio = float64(oldNs) / float64(r.PrunedNs)
		}
		tag := ""
		if ratio < threshold {
			tag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-12s %-10s workers=%-2d %14d %14d %8.2fx%s\n", r.Preset, r.Algorithm, r.Workers, oldNs, r.PrunedNs, ratio, tag)
	}
	return regressions
}

// compareSharded diffs the -shards rows on the (preset, algorithm, workers,
// shards) key; the simulated cluster wall-clock is the tracked number.
func compareSharded(w io.Writer, old, cur *output, threshold float64) int {
	if len(old.Sharded) == 0 || len(cur.Sharded) == 0 {
		return 0
	}
	type cell struct {
		preset  string
		alg     string
		workers int
		shards  int
	}
	prev := make(map[cell]int64, len(old.Sharded))
	for _, r := range old.Sharded {
		prev[cell{r.Preset, r.Algorithm, r.Workers, r.Shards}] = r.WallNs
	}
	regressions := 0
	fmt.Fprintf(w, "\nsharded rows (wall ns/op = max shard + merge):\n")
	fmt.Fprintf(w, "%-12s %-10s %-9s %-8s %14s %14s %9s\n", "preset", "algorithm", "workers", "shards", "old ns/op", "new ns/op", "old/new")
	for _, r := range cur.Sharded {
		oldNs, ok := prev[cell{r.Preset, r.Algorithm, r.Workers, r.Shards}]
		if !ok {
			fmt.Fprintf(w, "%-12s %-10s workers=%-2d shards=%-2d %14s %14d %9s\n", r.Preset, r.Algorithm, r.Workers, r.Shards, "-", r.WallNs, "new")
			continue
		}
		ratio := 0.0
		if r.WallNs > 0 {
			ratio = float64(oldNs) / float64(r.WallNs)
		}
		tag := ""
		if ratio < threshold {
			tag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-12s %-10s workers=%-2d shards=%-2d %14d %14d %8.2fx%s\n", r.Preset, r.Algorithm, r.Workers, r.Shards, oldNs, r.WallNs, ratio, tag)
	}
	return regressions
}

func preset(name string, seed int64) (gen.Config, error) {
	switch name {
	case "facebook":
		return gen.Facebook(seed), nil
	case "renren":
		return gen.Renren(seed), nil
	case "youtube":
		return gen.YouTube(seed), nil
	case "renren-100k":
		return gen.Renren100K(seed), nil
	case "renren-1m":
		return gen.Renren1M(seed), nil
	}
	return gen.Config{}, fmt.Errorf("unknown preset %q (facebook, renren, youtube, renren-100k, renren-1m)", name)
}

// localFamily is the full local-metric family the pruned candidate engine
// serves: the paper's 7 local metrics plus the 5 survey extensions.
var localFamily = []string{"CN", "JC", "AA", "RA", "BCN", "BAA", "BRA", "Salton", "Sorensen", "HPI", "HDI", "LHN"}

// maxAllPairsNodes caps the -allpairs baseline: above it N(N-1)/2 scored
// pairs stop being a benchmark and become a weekend. Rows past the cap get
// no all-pairs column (logged, not silent).
const maxAllPairsNodes = 200_000

// allPairsNs times one full all-pairs scoring pass: every unordered pair
// streamed through the algorithm's batch path in fixed-size chunks. This is
// the O(N²) baseline the candidate engine replaces — measured, not
// extrapolated, so the scaling rows can state the speedup honestly. One
// pass only; at 5·10⁹ pairs the variance is negligible next to the cost.
func allPairsNs(alg predict.Algorithm, g *graph.Graph, opt predict.Options) int64 {
	const chunk = 1 << 20
	buf := make([]predict.Pair, 0, chunk)
	n := graph.NodeID(g.NumNodes())
	start := time.Now()
	for u := graph.NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			buf = append(buf, predict.Pair{U: u, V: v})
			if len(buf) == chunk {
				alg.ScorePairs(g, buf, opt)
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		alg.ScorePairs(g, buf, opt)
	}
	return time.Since(start).Nanoseconds()
}

// presetGraphs caches generated preset snapshots so -scaling and -shards
// sweeps over the same preset pay the (minutes-scale at 10⁶ nodes)
// generation cost once.
var presetGraphs = map[string]*graph.Graph{}

func presetGraph(name string, seed int64) (*graph.Graph, error) {
	if g, ok := presetGraphs[name]; ok {
		return g, nil
	}
	cfg, err := preset(name, seed)
	if err != nil {
		return nil, err
	}
	tr := gen.MustGenerate(cfg)
	cuts := tr.Cuts(gen.DefaultDelta(cfg))
	g := tr.SnapshotAtEdge(cuts[len(cuts)-2].EdgeCount)
	presetGraphs[name] = g
	return g, nil
}

// runSharded times the cluster's scatter/gather path in process: for each
// shard count, one range-restricted Predict per source shard (DESIGN.md
// §12) plus the MergeTopK fold of the partial lists, against the
// unrestricted single sweep. Shards are timed sequentially and the
// simulated cluster wall-clock is max(per-shard ns) + merge ns — on this
// one machine that is the faithful model of N workers sweeping their
// ranges concurrently, while sum_ns shows the total compute the cluster
// spends. Bit-identity of the merged top-k against the single sweep is
// checked on every row; a mismatch is a contract violation and fails the
// run.
func runSharded(o *output, presets, algNames []string, seed int64, k int, counts, shardCounts []int, mintime time.Duration, maxIters int) error {
	for _, name := range presets {
		g, err := presetGraph(name, seed)
		if err != nil {
			return err
		}
		n := g.NumNodes()
		fmt.Printf("sharded %s: %d nodes, %d edges\n", name, n, g.NumEdges())
		for _, algName := range algNames {
			alg, err := predict.ByName(algName)
			if err != nil {
				return fmt.Errorf("-shards: %w", err)
			}
			for _, w := range counts {
				opt := predict.DefaultOptions()
				opt.Workers = w
				single := alg.Predict(g, k, opt) // warm + reference output
				singleNs := measure(mintime, maxIters, func() { alg.Predict(g, k, opt) })
				for _, shards := range shardCounts {
					// Cost-model-weighted boundaries, matching what each
					// cluster worker derives from its own snapshot for the
					// served family — equal-count ranges would leave the
					// hub-heavy low-ID shard with most of the sweep, and the
					// uncapped wedge model over-bills the naive Bayes
					// family's pruned hub sweeps (predict.CostModelFor).
					ranges := predict.WeightedSourceRangesFor(g, shards, predict.CostModelFor(alg.Name()))
					parts := make([][]predict.Pair, shards)
					var maxNs, sumNs int64
					for s := 0; s < shards; s++ {
						sOpt := opt
						r := ranges[s]
						sOpt.SourceRange = &r
						parts[s] = alg.Predict(g, k, sOpt)
						ns := measure(mintime, maxIters, func() { alg.Predict(g, k, sOpt) })
						sumNs += ns
						if ns > maxNs {
							maxNs = ns
						}
					}
					merged := predict.MergeTopK(parts, k, opt.Seed)
					mergeNs := measure(mintime, maxIters, func() { predict.MergeTopK(parts, k, opt.Seed) })
					identical := len(merged) == len(single)
					if identical {
						for i := range merged {
							if merged[i] != single[i] {
								identical = false
								break
							}
						}
					}
					wall := maxNs + mergeNs
					speedup := 0.0
					if wall > 0 {
						speedup = float64(singleNs) / float64(wall)
					}
					o.Sharded = append(o.Sharded, shardResult{
						Preset:     name,
						Nodes:      n,
						Edges:      g.NumEdges(),
						Algorithm:  alg.Name(),
						Workers:    w,
						Shards:     shards,
						SingleNs:   singleNs,
						MaxShardNs: maxNs,
						SumShardNs: sumNs,
						MergeNs:    mergeNs,
						WallNs:     wall,
						Speedup:    speedup,
						Identical:  identical,
					})
					fmt.Printf("%-12s %-8s workers=%-2d shards=%-2d single %12s/op  wall %12s/op  (max shard %s + merge %s)  speedup=%.2fx\n",
						name, alg.Name(), w, shards, time.Duration(singleNs), time.Duration(wall),
						time.Duration(maxNs), time.Duration(mergeNs), speedup)
					if !identical {
						return fmt.Errorf("-shards: %s %s workers=%d shards=%d: merged top-k differs from single sweep", name, alg.Name(), w, shards)
					}
				}
			}
		}
	}
	return nil
}

// runPartitionMemory measures the tentpole's memory story: for each preset
// and shard count, the resident adjacency bytes of every ownership-
// partitioned shard (graph.PartitionView at the wedge-weighted boundaries)
// against the full snapshot, with the merged CN top-k checked bit-identical
// to the unrestricted sweep — the number is only meaningful if the smaller
// snapshot still answers exactly.
func runPartitionMemory(o *output, presets []string, shardCounts []int, seed int64, k int) error {
	for _, name := range presets {
		g, err := presetGraph(name, seed)
		if err != nil {
			return err
		}
		n := g.NumNodes()
		full := g.ResidentBytes()
		fmt.Printf("partition %s: %d nodes, %d edges, full resident %d bytes\n", name, n, g.NumEdges(), full)
		opt := predict.DefaultOptions()
		single := predict.CN.Predict(g, k, opt)
		for _, shards := range shardCounts {
			ranges := predict.WeightedSourceRanges(g, shards)
			parts := make([][]predict.Pair, shards)
			rowBase := len(o.Memory)
			for s, r := range ranges {
				pv := graph.PartitionView(g, graph.NodeID(r.Lo), graph.NodeID(r.Hi))
				parts[s] = predict.CN.Predict(pv, k, opt)
				bytes := pv.ResidentBytes()
				frac := 0.0
				if full > 0 {
					frac = float64(bytes) / float64(full)
				}
				o.Memory = append(o.Memory, memoryResult{
					Preset:           name,
					Nodes:            n,
					Edges:            g.NumEdges(),
					Shards:           shards,
					Shard:            s,
					RangeLo:          r.Lo,
					RangeHi:          r.Hi,
					FullBytes:        full,
					PartitionedBytes: bytes,
					Fraction:         frac,
				})
				fmt.Printf("%-12s shards=%-2d shard=%-2d range=[%d,%d) resident %12d bytes  (%.3f of full)\n",
					name, shards, s, r.Lo, r.Hi, bytes, frac)
			}
			merged := predict.MergeTopK(parts, k, opt.Seed)
			identical := len(merged) == len(single)
			if identical {
				for i := range merged {
					if merged[i] != single[i] {
						identical = false
						break
					}
				}
			}
			for i := rowBase; i < len(o.Memory); i++ {
				o.Memory[i].Identical = identical
			}
			if !identical {
				return fmt.Errorf("-partition: %s shards=%d: merged top-k over partition views differs from full sweep", name, shards)
			}
		}
	}
	return nil
}

// runPublish measures the delta-CSR publish path: an incremental builder
// warmed on half the trace, then advanced one batch per publish to the end,
// against rebuilding the final snapshot from scratch. Allocations are
// counted across the whole publish loop (runtime.MemStats mallocs) and
// amortized per publish — the deterministic number the CI alloc gate
// compares; the timings are context.
func runPublish(o *output, tr *graph.Trace, presetName string, batches []int, mintime time.Duration, maxIters int) error {
	total := len(tr.Edges)
	rebuildNs := measure(mintime, maxIters, func() { tr.SnapshotAtEdge(total) })
	for _, batch := range batches {
		warm := total / 2
		if batch <= 0 || warm+batch > total {
			return fmt.Errorf("-publish: batch %d does not fit the trace (%d edges)", batch, total)
		}
		b := graph.NewIncrementalBuilder(tr)
		b.AtEdge(warm)
		rowsBefore := b.DeltaRows()
		publishes := 0
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for m := warm + batch; m <= total; m += batch {
			b.AtEdge(m)
			publishes++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		deltaNs := elapsed.Nanoseconds() / int64(publishes)
		allocs := int64(ms1.Mallocs-ms0.Mallocs) / int64(publishes)
		deltaRows := float64(b.DeltaRows()-rowsBefore) / float64(publishes)
		speedup := 0.0
		if deltaNs > 0 {
			speedup = float64(rebuildNs) / float64(deltaNs)
		}
		o.Publish = append(o.Publish, publishResult{
			Preset:      presetName,
			Edges:       total,
			Batch:       batch,
			Publishes:   publishes,
			DeltaNs:     deltaNs,
			RebuildNs:   rebuildNs,
			Speedup:     speedup,
			AllocsPerOp: allocs,
			DeltaRows:   deltaRows,
		})
		fmt.Printf("publish %-10s batch=%-5d %12s/op  rebuild %12s/op  speedup=%.1fx  allocs/op=%d  delta rows/op=%.1f\n",
			presetName, batch, time.Duration(deltaNs), time.Duration(rebuildNs), speedup, allocs, deltaRows)
	}
	return nil
}

// runScaling generates each named preset at its native size and times the
// default (pruned) Predict for every local metric and worker count. Rows are
// appended to o.Scaling.
func runScaling(o *output, presets, algNames []string, seed int64, k int, counts []int, mintime time.Duration, maxIters int, allPairs bool) error {
	for _, name := range presets {
		g, err := presetGraph(name, seed)
		if err != nil {
			return err
		}
		fmt.Printf("scaling %s: %d nodes, %d edges\n", name, g.NumNodes(), g.NumEdges())
		if allPairs && g.NumNodes() > maxAllPairsNodes {
			fmt.Printf("scaling %s: skipping all-pairs baseline (%d nodes > %d; N²/2 pairs would take hours)\n",
				name, g.NumNodes(), maxAllPairsNodes)
		}
		for _, algName := range algNames {
			alg, err := predict.ByName(algName)
			if err != nil {
				return fmt.Errorf("-scaling: %w", err)
			}
			for _, w := range counts {
				opt := predict.DefaultOptions()
				opt.Workers = w
				alg.Predict(g, k, opt) // warm the per-snapshot artifacts
				row := scalingResult{
					Preset:    name,
					Nodes:     g.NumNodes(),
					Edges:     g.NumEdges(),
					Algorithm: alg.Name(),
					Workers:   w,
					PrunedNs:  measure(mintime, maxIters, func() { alg.Predict(g, k, opt) }),
				}
				fmt.Printf("%-12s %-8s workers=%-2d pruned %12s/op", name, alg.Name(), w, time.Duration(row.PrunedNs))
				if allPairs && g.NumNodes() <= maxAllPairsNodes {
					row.AllPairsNs = allPairsNs(alg, g, opt)
					if row.PrunedNs > 0 {
						row.SpeedupAllPairs = float64(row.AllPairsNs) / float64(row.PrunedNs)
					}
					fmt.Printf("  all-pairs %12s/op  speedup=%.1fx", time.Duration(row.AllPairsNs), row.SpeedupAllPairs)
				}
				fmt.Println()
				o.Scaling = append(o.Scaling, row)
			}
		}
	}
	return nil
}

// measure times fn until mintime has elapsed (at least once, at most maxIters),
// returning mean ns/op.
func measure(mintime time.Duration, maxIters int, fn func()) int64 {
	var total time.Duration
	iters := 0
	for total < mintime && iters < maxIters {
		start := time.Now()
		fn()
		total += time.Since(start)
		iters++
	}
	return total.Nanoseconds() / int64(iters)
}

func main() {
	presetName := flag.String("preset", "renren", "trace preset: facebook, renren, youtube, renren-100k, renren-1m")
	scale := flag.Float64("scale", 0.2, "trace scale factor (use 1 with the pre-sized renren-100k / renren-1m presets)")
	seed := flag.Int64("seed", 1, "generation seed")
	k := flag.Int("k", 200, "top-k prediction budget")
	workers := flag.Int("workers", 0, "parallel worker count to compare against serial (0 = GOMAXPROCS)")
	out := flag.String("out", "BENCH_predict.json", "output path")
	mintime := flag.Duration("mintime", 2*time.Second, "minimum sampling time per (algorithm, workers) cell")
	maxIters := flag.Int("maxiters", 50, "iteration cap per cell")
	compare := flag.String("compare", "", "previous BENCH_predict.json to diff the fresh results against")
	algsFlag := flag.String("algs", "", "comma-separated algorithm names to benchmark (default: the evaluated set plus SRW)")
	scaling := flag.String("scaling", "", "comma-separated presets for the native-size local-metric sweep (e.g. renren-100k,renren-1m)")
	scalingAlgs := flag.String("scaling-algs", "", "local metrics for -scaling (default: the full 12-metric local family)")
	allPairs := flag.Bool("allpairs", false, "also time the O(N²) all-pairs baseline per -scaling row (expensive: N(N-1)/2 scored pairs per measurement)")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts for the scatter/gather sweep (e.g. 2,4,8); simulates the cluster's source-sharded prediction in process")
	shardPresets := flag.String("shard-presets", "renren-100k", "comma-separated presets for the -shards and -partition sweeps")
	partitionFlag := flag.String("partition", "", "comma-separated shard counts for the per-shard partitioned-memory sweep (e.g. 4); uses -shard-presets")
	publishFlag := flag.String("publish", "", "comma-separated batch sizes for the delta-publish alloc/time sweep on the main preset trace (e.g. 64,256)")
	failOnRegress := flag.Bool("fail-on-regress", false, "exit nonzero when -compare finds a regression beyond 10%")
	failOnAllocRegress := flag.Bool("fail-on-alloc-regress", false, "exit nonzero when -compare finds a regression beyond 10% in the deterministic memory/publish rows only (resident bytes, allocs per publish) — machine-independent, safe for CI")
	short := flag.Bool("short", false, "smoke mode: one iteration per cell, local-only default algorithm set")
	obsOn := flag.Bool("obs", false, "collect telemetry and embed the dump in the output JSON")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while benchmarking; implies -obs")
	progress := flag.Duration("progress", 0, "log a progress line to stderr at this interval; implies -obs")
	flag.Parse()

	if *short {
		// Smoke mode for CI: a single timed iteration per cell and a fast
		// local-metric default, so a 10⁵-node run fits a wall-clock budget.
		if *mintime > 100*time.Millisecond {
			*mintime = 100 * time.Millisecond
		}
		if *maxIters > 1 {
			*maxIters = 1
		}
		if *algsFlag == "" {
			*algsFlag = "CN,JC,AA"
		}
		if *scalingAlgs == "" {
			*scalingAlgs = "CN,JC,AA"
		}
	}

	stopProgress, err := obs.Boot(*obsOn, *debugAddr, *progress, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: obs: %v\n", err)
		os.Exit(2)
	}
	defer stopProgress()

	cfg, err := preset(*presetName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg = cfg.Scaled(*scale)
	tr := gen.MustGenerate(cfg)
	cuts := tr.Cuts(gen.DefaultDelta(cfg))
	g := tr.SnapshotAtEdge(cuts[len(cuts)-2].EdgeCount)

	par := *workers
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	counts := []int{1}
	if par != 1 {
		counts = append(counts, par)
	}

	o := output{
		Preset:     *presetName,
		Scale:      *scale,
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		K:          *k,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Timestamp:  time.Now().UTC(),
	}
	algs := append(predict.All(), predict.SRW)
	if *algsFlag != "" {
		algs = nil
		for _, name := range strings.Split(*algsFlag, ",") {
			alg, err := predict.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: -algs: %v\n", err)
				os.Exit(2)
			}
			algs = append(algs, alg)
		}
	}
	for _, alg := range algs {
		var serialNs int64
		for _, w := range counts {
			opt := predict.DefaultOptions()
			opt.Workers = w
			// Warm once outside the timed loop (lazy generator state, cache
			// warmup) and sanity-check the algorithm produces output.
			if len(alg.Predict(g, *k, opt)) == 0 {
				fmt.Fprintf(os.Stderr, "%s produced no predictions\n", alg.Name())
				os.Exit(1)
			}
			ns := measure(*mintime, *maxIters, func() { alg.Predict(g, *k, opt) })
			speedup := 0.0
			if w == 1 {
				serialNs = ns
				speedup = 1.0
			} else if ns > 0 {
				speedup = float64(serialNs) / float64(ns)
			}
			o.Results = append(o.Results, result{
				Algorithm: alg.Name(),
				Workers:   w,
				NsPerOp:   ns,
				Speedup:   speedup,
			})
			fmt.Printf("%-8s workers=%-2d %12s/op  speedup=%.2fx\n",
				alg.Name(), w, time.Duration(ns), speedup)
		}
	}

	if *scaling != "" {
		presets := strings.Split(*scaling, ",")
		for i := range presets {
			presets[i] = strings.TrimSpace(presets[i])
		}
		algNames := localFamily
		if *scalingAlgs != "" {
			algNames = nil
			for _, name := range strings.Split(*scalingAlgs, ",") {
				algNames = append(algNames, strings.TrimSpace(name))
			}
		}
		if err := runScaling(&o, presets, algNames, *seed, *k, counts, *mintime, *maxIters, *allPairs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *shardsFlag != "" {
		var shardCounts []int
		for _, s := range strings.Split(*shardsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bench: -shards: bad count %q\n", s)
				os.Exit(2)
			}
			shardCounts = append(shardCounts, v)
		}
		presets := strings.Split(*shardPresets, ",")
		for i := range presets {
			presets[i] = strings.TrimSpace(presets[i])
		}
		algNames := localFamily
		if *scalingAlgs != "" {
			algNames = nil
			for _, name := range strings.Split(*scalingAlgs, ",") {
				algNames = append(algNames, strings.TrimSpace(name))
			}
		}
		if err := runSharded(&o, presets, algNames, *seed, *k, counts, shardCounts, *mintime, *maxIters); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *partitionFlag != "" {
		var shardCounts []int
		for _, s := range strings.Split(*partitionFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bench: -partition: bad count %q\n", s)
				os.Exit(2)
			}
			shardCounts = append(shardCounts, v)
		}
		presets := strings.Split(*shardPresets, ",")
		for i := range presets {
			presets[i] = strings.TrimSpace(presets[i])
		}
		if err := runPartitionMemory(&o, presets, shardCounts, *seed, *k); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *publishFlag != "" {
		var batches []int
		for _, s := range strings.Split(*publishFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bench: -publish: bad batch %q\n", s)
				os.Exit(2)
			}
			batches = append(batches, v)
		}
		if err := runPublish(&o, tr, *presetName, batches, *mintime, *maxIters); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	if obs.Enabled() {
		o.Telemetry = obs.Snapshot()
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		old, err := loadOutput(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("\ncomparing against %s (%s)\n", *compare, old.Timestamp.Format(time.RFC3339))
		n, det := compareOutputs(os.Stdout, old, &o, 0.90)
		if n > 0 {
			fmt.Printf("%d regression(s) beyond 10%% (%d deterministic)\n", n, det)
			if *failOnRegress || (*failOnAllocRegress && det > 0) {
				os.Exit(1)
			}
		}
	}
}
