package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/liveeval"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// perLayer lists every per-layer metric with its unit, in README order.
// Every traced run reports all of them; a layer the workload does not
// exercise reads 0 (README, "which layer moves which metric").
var perLayer = []struct{ Name, Unit string }{
	{"predict.sweep_local_ms", "ms"},
	{"predict.sweep_latent_ms", "ms"},
	{"predict.score_pairs_us", "us"},
	{"predict.sweeps", "count"},
	{"predict.shard_sweep_ratio", "ratio"},
	{"serve.predict_self_us", "us"},
	{"serve.score_self_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.resp_bytes_per_predict", "bytes"},
	{"serve.ingest_self_us", "us"},
	{"serve.score_sweeps_per_req", "ratio"},
	{"serve.degraded_share", "fraction"},
	{"serve.rejected", "count"},
	{"serve.boot_ms", "ms"},
	{"snapcache.cold_build_ms", "ms"},
	{"snapcache.warm_hit_us", "us"},
	{"graph.publish_us", "us"},
	{"graph.publish_delta_rows", "count"},
	{"graph.append_ns_per_edge", "ns"},
	{"graph.snapshot_bytes", "bytes"},
	{"wal.sync_us", "us"},
	{"wal.fsyncs_per_batch", "ratio"},
	{"wal.write_bytes_per_edge", "bytes"},
	{"wal.checkpoint_write_ms", "ms"},
	{"wal.checkpoints", "count"},
	{"wal.recover_ms", "ms"},
	{"cluster.shard_rtt_ms", "ms"},
	{"cluster.straggler_gap_ms", "ms"},
	{"cluster.router_self_ms", "ms"},
	{"cluster.merge_us", "us"},
	{"cluster.fanout_per_predict", "ratio"},
	{"cluster.partial_share", "fraction"},
	{"cluster.ingest_replicate_ms", "ms"},
	{"liveeval.observe_ns_per_edge", "ns"},
	{"liveeval.record_us", "us"},
	{"obs.enabled_overhead_pct", "%"},
	{"gen.generate_s", "s"},
	{"loadgen.predict_p90_ms", "ms"},
	{"loadgen.score_p50_ms", "ms"},
	{"loadgen.score_p90_ms", "ms"},
	{"loadgen.ingest_ack_p50_ms", "ms"},
	{"loadgen.ingest_ack_p90_ms", "ms"},
	{"loadgen.ingest_ack_midmean_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.sent_open", "count"},
	{"loadgen.ok_open", "count"},
	{"loadgen.sent_closed", "count"},
	{"loadgen.ok_closed", "count"},
	{"loadgen.failed", "count"},
	{"trace.predict_span_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// probeReps is how often a direct probe repeats; the median is reported.
const probeReps = 10

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps runs fn reps times and returns the durations in milliseconds.
func timeReps(reps int, fn func(i int)) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = ms(time.Since(t0))
	}
	return out
}

// runTraced replays a shortened schedule of the workload in process with
// spans on, derives the per-layer metrics from them, and adds the direct
// probes for what no request span contains.
func (e *env) runTraced(ctx context.Context, w workload, opt options) (*result, error) {
	res := &result{Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: true, Metrics: map[string]metric{}, Info: map[string]float64{}}
	set := func(name string, v float64, n int) {
		m := res.Metrics[name]
		m.Value, m.N = v, n
		res.Metrics[name] = m
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{Unit: m.Unit}
	}
	obs.Enable(true) // the daemons' default

	t0 := time.Now()
	full, err := generateTrace(w, opt.seed, opt.quick)
	if err != nil {
		return nil, err
	}
	set("gen.generate_s", time.Since(t0).Seconds(), 1)
	replay := opt.seconds / 2
	sched := buildSchedule(w, opt.seed, replay, full)
	if sched.IngestShort && !opt.quick {
		return nil, fmt.Errorf("%s: the trace's tail is too short for %.0f s of ingest", w.Name, replay)
	}

	rec := newRecorder()
	sys, err := bootSystem(w, sched.Warm, rec, e.runDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	set("serve.boot_ms", median(sys.bootMS), len(sys.bootMS))

	epoch := time.Now()
	tr := newTraffic(w, sched, &inprocTarget{sys: sys}, &inprocTarget{sys: sys}, epoch)
	tr.warmup(ctx)
	rec.reset() // warm-up spans are not part of any figure
	if err := tr.measured(ctx, replay); err != nil {
		return nil, err
	}
	samples := tr.samples()
	spans := rec.snapshot()

	v := newOracle(sched.Warm).verify(sched, samples, opt.seed)
	res.Attempted, res.Failed, res.Problems = v.Attempted, v.Failed, v.Problems
	res.Correct = v.Failed == 0
	res.Info["oracle.tuples"], res.Info["oracle.checked"] = float64(v.Tuples), float64(v.Checked)

	fromSpans(set, w, spans, samples)
	fromSamples(set, samples)

	// Capacity with spans, without them, and with telemetry switched off
	// too, against the same system, in two interleaved rounds so that drift
	// does not read as overhead: the cost of the benchmark's own tracing,
	// and of obs.
	var traced, untraced, noObs float64
	for round := 0; round < 2; round++ {
		traced += closedCapacity(ctx, tr, 800*time.Millisecond)
		rec.on.Store(false)
		untraced += closedCapacity(ctx, tr, 800*time.Millisecond)
		obs.Enable(false)
		noObs += closedCapacity(ctx, tr, 800*time.Millisecond)
		obs.Enable(true)
		rec.on.Store(true)
	}
	if untraced > 0 && noObs > 0 {
		set("trace.overhead_pct", 100*(untraced-traced)/untraced, 2)
		set("obs.enabled_overhead_pct", 100*(noObs-untraced)/noObs, 2)
	}

	var snapBytes int64
	for _, srv := range sys.servers {
		snapBytes += srv.Snapshot().Graph.ResidentBytes()
	}
	set("graph.snapshot_bytes", float64(snapBytes), 1)
	if w.Shards > 0 {
		clusterProbes(set, sys, spans)
	}
	if w.WAL {
		// Recovery: close the server, then time serve.New on the log it left.
		sys.servers[0].Close()
		cfg := sys.cfgs[0]
		cfg.Trace = cloneTrace(sched.Warm)
		t0 := time.Now()
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("recover from the traced run's log: %w", err)
		}
		set("wal.recover_ms", ms(time.Since(t0)), 1)
		srv.Close()
	}
	directProbes(set, full, sched)

	set("trace.spans", float64(len(spans)), 1)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	dump, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.Name, opt.seed, spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, "trace-"+w.Name+".json"), dump, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// closedCapacity runs the closed loop for d and returns requests per second.
func closedCapacity(ctx context.Context, tr *traffic, d time.Duration) float64 {
	before := len(tr.lanes[0].out) + len(tr.lanes[1].out)
	t0 := time.Now()
	until := t0.Add(d)
	if err := both(&tr.lanes, func(l *lane) { l.cycle(ctx, tr.sched.Closed[l.id], until) }); err != nil {
		return 0
	}
	n := len(tr.lanes[0].out) + len(tr.lanes[1].out) - before
	return float64(n) / time.Since(t0).Seconds()
}

var latent = map[string]bool{"Katz": true, "KatzSC": true, "Rescal": true}

// fromSpans derives every figure that comes out of the span tree.
func fromSpans(set func(string, float64, int), w workload, spans []span, samples []sample) {
	self := selfTimes(spans)
	byName := map[string][]span{}
	kids := map[int64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	durs := func(ss []span, keep func(span) bool) []float64 {
		var out []float64
		for _, s := range ss {
			if keep == nil || keep(s) {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	selfs := func(ss []span, keep func(span) bool) []float64 {
		var out []float64
		for _, s := range ss {
			if keep == nil || keep(s) {
				out = append(out, us(self[s.ID]))
			}
		}
		return out
	}
	med := func(name string, xs []float64, scale float64) {
		if len(xs) > 0 {
			set(name, median(xs)*scale, len(xs))
		}
	}

	sweeps := byName["predict.sweep"]
	med("predict.sweep_local_ms", durs(sweeps, func(s span) bool { return !latent[s.Attr] }), 1)
	med("predict.sweep_latent_ms", durs(sweeps, func(s span) bool { return latent[s.Attr] }), 1)
	med("predict.score_pairs_us", durs(byName["predict.score_pairs"], nil), 1000)
	set("predict.sweeps", float64(len(sweeps)), 1)
	med("trace.predict_span_ms", durs(byName["http.predict"], nil), 1)

	// The serve layer's own time: a direct call's span minus its engine
	// children. Behind a router the boundary is the shard round trip, which
	// includes the shard's HTTP handling.
	if w.Shards == 0 {
		med("serve.predict_self_us", selfs(byName["direct.predict"], nil), 1)
		med("serve.score_self_us", selfs(byName["direct.score"], nil), 1)
		med("serve.ingest_self_us", selfs(byName["direct.ingest"], nil), 1)
	} else {
		rts := byName["cluster.shard_rt"]
		at := func(path string) func(span) bool { return func(s span) bool { return s.Attr == path } }
		med("serve.predict_self_us", selfs(rts, at("/predict")), 1)
		med("serve.score_self_us", selfs(rts, at("/score")), 1)
		med("serve.ingest_self_us", selfs(rts, at("/ingest")), 1)
	}
	// HTTP's share: the same requests through the handler, less the same
	// self time without it.
	if h, d := selfs(byName["http.predict"], nil), selfs(byName["direct.predict"], nil); len(h) > 0 && len(d) > 0 {
		set("serve.http_self_us", median(h)-median(d), len(h))
	}
	var respBytes []float64
	for _, s := range byName["http.predict"] {
		respBytes = append(respBytes, float64(s.Count))
	}
	if len(respBytes) > 0 {
		set("serve.resp_bytes_per_predict", mean(respBytes), len(respBytes))
	}
	scores := len(byName["http.score"]) + len(byName["direct.score"])
	if scores > 0 {
		set("serve.score_sweeps_per_req", float64(len(byName["predict.score_pairs"]))/float64(scores), scores)
	}

	// WAL: writes and syncs of segment files hang under the ingest request.
	var syncs []float64
	var batchSyncs, written int64
	for _, s := range byName["wal.sync"] {
		if strings.HasSuffix(s.Attr, ".seg") {
			syncs = append(syncs, us(s.dur()))
			if s.Parent != 0 {
				batchSyncs++
			}
		}
	}
	for _, s := range byName["wal.write"] {
		written += s.Count
	}
	med("wal.sync_us", syncs, 1)
	ingests := len(byName["http.ingest"]) + len(byName["direct.ingest"])
	edges := 0
	for i := range samples {
		if sm := &samples[i]; sm.Op.Class == opIngest && sm.Phase != phaseWarmup && sm.Status == http.StatusOK {
			edges += sm.Op.Hi - sm.Op.Lo
		}
	}
	if w.WAL && ingests > 0 && edges > 0 {
		set("wal.fsyncs_per_batch", float64(batchSyncs)/float64(ingests), ingests)
		set("wal.write_bytes_per_edge", float64(written)/float64(edges), edges)
	}
	ckpts := byName["wal.checkpoint_write"]
	med("wal.checkpoint_write_ms", durs(ckpts, nil), 1)
	set("wal.checkpoints", float64(len(ckpts)), 1)

	if w.Shards == 0 {
		return
	}
	// Cluster: a router request's children are its shard round trips.
	var rtts, gaps, routerSelf []float64
	fanout, routed := 0, 0
	for _, name := range []string{"http.predict", "direct.predict"} {
		for _, root := range byName[name] {
			routed++
			var lo, hi time.Duration
			trips := 0
			for _, k := range kids[root.ID] {
				if k.Name != "cluster.shard_rt" {
					continue
				}
				trips++
				rtts = append(rtts, ms(k.dur()))
				if trips == 1 || k.dur() < lo {
					lo = k.dur()
				}
				hi = max(hi, k.dur())
			}
			fanout += trips
			if trips >= 2 {
				gaps = append(gaps, ms(hi-lo))
			}
			if name == "direct.predict" {
				routerSelf = append(routerSelf, us(self[root.ID])/1000)
			}
		}
	}
	med("cluster.shard_rtt_ms", rtts, 1)
	med("cluster.straggler_gap_ms", gaps, 1)
	med("cluster.router_self_ms", routerSelf, 1)
	if routed > 0 {
		set("cluster.fanout_per_predict", float64(fanout)/float64(routed), routed)
	}
	med("cluster.ingest_replicate_ms", durs(byName["direct.ingest"], nil), 1)
}

// fromSamples derives what the generator itself saw.
func fromSamples(set func(string, float64, int), samples []sample) {
	var late []float64
	var sent, ok [numPhases]int
	failed, reads, degraded, partial, predicts, rejected := 0, 0, 0, 0, 0, 0
	for i := range samples {
		sm := &samples[i]
		sent[sm.Phase]++
		if sm.Phase == phaseOpen {
			late = append(late, ms(sm.Sent-sm.Due))
		}
		switch sm.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			rejected++
		}
		if sm.Dropped || sm.Err != nil || sm.Status != http.StatusOK {
			failed++
			continue
		}
		ok[sm.Phase]++
		if sm.Op.Class == opIngest {
			continue
		}
		var h readHeader
		if json.Unmarshal(sm.Body, &h) != nil {
			continue
		}
		reads++
		if h.Degraded {
			degraded++
		}
		if sm.Op.Class == opPredict {
			predicts++
			if h.Partial {
				partial++
			}
		}
	}
	if p90, _ := quantile(late, 0.90); len(late) > 0 {
		set("loadgen.late_p90_ms", p90, len(late))
	}
	// What the end-to-end list leaves out as too noisy to bound, as the
	// shortened in-process replay saw it; the sample counts say how little
	// a tail of this replay is worth.
	lat := classLatencies(samples)
	for c, name := range map[opClass]string{opPredict: "predict", opScore: "score", opIngest: "ingest_ack"} {
		xs := lat[c]
		if len(xs) == 0 {
			continue
		}
		p90, _ := quantile(xs, 0.90)
		set("loadgen."+name+"_p90_ms", p90, len(xs))
		if c != opPredict {
			set("loadgen."+name+"_p50_ms", median(xs), len(xs))
		}
	}
	if xs := lat[opIngest]; len(xs) > 0 {
		set("loadgen.ingest_ack_midmean_ms", midmean(xs), len(xs))
	}
	set("loadgen.sent_open", float64(sent[phaseOpen]), 1)
	set("loadgen.ok_open", float64(ok[phaseOpen]), 1)
	set("loadgen.sent_closed", float64(sent[phaseClosed]), 1)
	set("loadgen.ok_closed", float64(ok[phaseClosed]), 1)
	set("loadgen.failed", float64(failed), 1)
	set("serve.rejected", float64(rejected), 1)
	if reads > 0 {
		set("serve.degraded_share", float64(degraded)/float64(reads), reads)
	}
	if predicts > 0 {
		set("cluster.partial_share", float64(partial)/float64(predicts), predicts)
	}
}

// clusterProbes measures what the router's spans cannot separate: the merge
// alone, and how much sweep work sharding repeats.
func clusterProbes(set func(string, float64, int), sys *system, spans []span) {
	g := sys.servers[0].Snapshot().Graph
	opt := predict.DefaultOptions()
	opt.Workers = 1
	n := len(sys.servers)

	// Merge: real partial lists of the current snapshot, k = 100.
	cn, err := predict.ByName("CN")
	if err != nil {
		return
	}
	parts := make([][]predict.Pair, n)
	for i, r := range predict.WeightedSourceRangesFor(g, n, predict.CostModelFor("CN")) {
		o := opt
		o.SourceRange = &r
		parts[i] = cn.Predict(g, 100, o)
	}
	merge := timeReps(probeReps, func(int) { predict.MergeTopK(parts, 100, 1) })
	set("cluster.merge_us", median(merge)*1000, len(merge))

	// Redundancy: per algorithm, the sweep time the shards spent on one
	// router request, summed, over one unsharded sweep of the same
	// snapshot. 1.0 means sharding repeated no work.
	perReq := map[string]map[int64]float64{} // alg → request → Σ shard sweep ms
	for _, s := range spans {
		if s.Name == "predict.sweep" {
			if perReq[s.Attr] == nil {
				perReq[s.Attr] = map[int64]float64{}
			}
			perReq[s.Attr][s.Req] += ms(s.dur())
		}
	}
	var ratios []float64
	for name, reqs := range perReq {
		alg, err := predict.ByName(name)
		if err != nil {
			continue
		}
		single := timeReps(3, func(int) { alg.Predict(g, 100, opt) })
		var sums []float64
		for _, v := range reqs {
			sums = append(sums, v)
		}
		ratios = append(ratios, median(sums)/median(single))
	}
	if len(ratios) > 0 {
		set("predict.shard_sweep_ratio", mean(ratios), len(ratios))
	}
}

// directProbes times the layer functions no request span contains, on the
// workload's own graph.
func directProbes(set func(string, float64, int), full *graph.Trace, sched *schedule) {
	warmEdges := len(sched.Warm.Edges)
	opt := predict.DefaultOptions()
	opt.Workers = 1

	// snapcache + linalg: what one publish hands the background warmer.
	warmSet := []string{"AA", "BAA", "Katz", "KatzSC", "Rescal"} // serve's default WarmAlgorithms
	var cold, hits []float64
	for i := 0; i < probeReps; i++ {
		g := sched.Warm.SnapshotAtEdge(warmEdges) // a fresh snapshot: nothing cached
		t0 := time.Now()
		predict.Warm(g, warmSet, opt)
		cold = append(cold, ms(time.Since(t0)))
		t1 := time.Now()
		predict.Warm(g, warmSet, opt)
		hits = append(hits, us(time.Since(t1)))
	}
	set("snapcache.cold_build_ms", median(cold), len(cold))
	set("snapcache.warm_hit_us", median(hits), len(hits))

	// graph: the delta publish of one 512-edge batch, and raw appends.
	b := graph.NewIncrementalBuilder(full)
	b.AtEdge(warmEdges)
	reps := min(2*probeReps, (len(full.Edges)-warmEdges)/snapshotEvery)
	if reps > 0 {
		rows := b.DeltaRows()
		publish := timeReps(reps, func(i int) { b.AtEdge(warmEdges + (i+1)*snapshotEvery) })
		set("graph.publish_us", median(publish)*1000, reps)
		set("graph.publish_delta_rows", float64(b.DeltaRows()-rows)/float64(reps), reps)
	}
	if tail := full.Edges[warmEdges:]; len(tail) > 0 {
		t := cloneTrace(sched.Warm)
		t0 := time.Now()
		for _, e := range tail {
			_, _ = t.Append(e.U, e.V, e.Time) // generated edges are valid; only the time matters here
		}
		set("graph.append_ns_per_edge", float64(time.Since(t0).Nanoseconds())/float64(len(tail)), len(tail))
	}

	// liveeval: one recorded top-128 per epoch, then the tail observed.
	eng := liveeval.New(liveeval.Config{TopK: 128, Window: 1024})
	ranked := make([][2]graph.NodeID, 0, 128)
	for _, e := range full.Edges[max(0, len(full.Edges)-128):] {
		ranked = append(ranked, [2]graph.NodeID{e.U, e.V})
	}
	record := timeReps(2*probeReps, func(i int) { eng.Record("CN", int64(i), warmEdges, warmEdges, ranked) })
	set("liveeval.record_us", median(record)*1000, len(record))
	if tail := full.Edges[warmEdges:]; len(tail) > 0 {
		t0 := time.Now()
		for i, e := range tail {
			eng.ObserveEdge(e.U, e.V, warmEdges+i)
		}
		set("liveeval.observe_ns_per_edge", float64(time.Since(t0).Nanoseconds())/float64(len(tail)), len(tail))
	}
}
