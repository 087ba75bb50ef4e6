package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"linkpred/internal/graph"
)

// metric is one reported number. N is the sample count behind a percentile
// or median (0 where the value is a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds figures that explain a run but are not metrics of the
	// contract: set-up parts, tuples checked, samples per phase.
	Info     map[string]float64 `json:"info,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// setups is how many times the set-up (generate, write, boot, warm up)
	// is repeated; setup_s is the median.
	setups int
}

// topology is a booted system under test.
type topology struct {
	front *proc   // what clients talk to: the single linkpredd, or linkpredr
	procs []*proc // every daemon, for CPU and memory accounting
}

func (t *topology) kill() {
	for _, p := range t.procs {
		p.kill()
	}
}

// boot starts the workload's topology on the trace file and waits until
// every daemon answers /healthz.
func (e *env) boot(ctx context.Context, w workload, traceFile, tag string, recoverWAL bool) (*topology, error) {
	t := &topology{}
	args := []string{"-trace", traceFile}
	if w.NoWarm {
		args = append(args, "-warm=false")
	}
	if w.WAL {
		walDir := filepath.Join(e.runDir, "wal-"+w.Name)
		args = append(args, "-wal-dir", walDir)
		if recoverWAL {
			args = append(args, "-recover")
		} else if err := os.RemoveAll(walDir); err != nil {
			// A boot that is not a recovery starts from an empty log: earlier
			// set-ups and earlier runs of this invocation leave theirs behind.
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if w.Shards == 0 {
		p, err := e.spawn(tag+"-linkpredd", "linkpredd", args...)
		if err != nil {
			return nil, err
		}
		t.front, t.procs = p, []*proc{p}
		return t, p.waitHealthy(ctx)
	}
	var routerArgs []string
	for i := 0; i < w.Shards; i++ {
		p, err := e.spawn(fmt.Sprintf("%s-shard%d", tag, i), "linkpredd", append(args, "-workers", "1")...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		routerArgs = append(routerArgs, "-shard", p.base)
	}
	for _, p := range t.procs {
		if err := p.waitHealthy(ctx); err != nil {
			return nil, err
		}
	}
	r, err := e.spawn(tag+"-linkpredr", "linkpredr", routerArgs...)
	if err != nil {
		return nil, err
	}
	t.front, t.procs = r, append(t.procs, r)
	return t, r.waitHealthy(ctx)
}

func writeTrace(path string, tr *graph.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// control issues one out-of-band request (flush, reference predict).
func control(ctx context.Context, method, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// sumProcs adds up one per-process figure over every daemon.
func sumProcs(procs []*proc, f func(*proc) (float64, error)) (float64, error) {
	var sum float64
	for _, p := range procs {
		v, err := f(p)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// runSocket runs one workload against real daemons over loopback and
// returns its end-to-end metrics.
func (e *env) runSocket(ctx context.Context, w workload, opt options) (*result, error) {
	res := &result{Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Metrics: map[string]metric{}, Info: map[string]float64{}}
	traceFile := filepath.Join(e.runDir, w.Name+".trace")

	// Set-up, repeated: only the last topology is kept and measured.
	var (
		setupS []float64
		sched  *schedule
		topo   *topology
		tr     *traffic
		epoch  time.Time
	)
	for i := 0; i < opt.setups; i++ {
		if topo != nil {
			topo.kill()
		}
		t0 := time.Now()
		full, err := generateTrace(w, opt.seed, opt.quick)
		if err != nil {
			return nil, err
		}
		genS := time.Since(t0).Seconds()
		// Building the schedule is the harness's own work, not the system's:
		// it is kept out of setup_s.
		sched = buildSchedule(w, opt.seed, opt.seconds, full)
		if sched.IngestShort && !opt.quick {
			return nil, fmt.Errorf("%s: the trace's tail is too short for %.0f s of ingest", w.Name, opt.seconds)
		}
		t1 := time.Now()
		if err := writeTrace(traceFile, sched.Warm); err != nil {
			return nil, err
		}
		if topo, err = e.boot(ctx, w, traceFile, fmt.Sprintf("%s-%d", w.Name, i), false); err != nil {
			return nil, err
		}
		bootS := time.Since(t1).Seconds()
		epoch = time.Now()
		a, b := newHTTPTarget(topo.front.base), newHTTPTarget(topo.front.base)
		defer a.close()
		defer b.close()
		tr = newTraffic(w, sched, a, b, epoch)
		tr.warmup(ctx)
		warmS := time.Since(epoch).Seconds()
		setupS = append(setupS, genS+bootS+warmS)
		res.Info["setup.generate_s"], res.Info["setup.boot_s"], res.Info["setup.warmup_s"] = genS, bootS, warmS
	}

	// Timed phases, with CPU bracketing the open loop.
	var cpu0, cpu1 float64
	var cpuErr error
	tr.openStart = func() { cpu0, cpuErr = sumProcs(topo.procs, (*proc).cpuMS) }
	tr.openEnd = func() {
		if cpuErr == nil {
			cpu1, cpuErr = sumProcs(topo.procs, (*proc).cpuMS)
		}
	}
	if err := tr.measured(ctx, opt.seconds); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	rss, err := sumProcs(topo.procs, (*proc).hwmMiB)
	if err != nil {
		return nil, err
	}

	orc := newOracle(sched.Warm)
	samples := tr.samples()
	v := orc.verify(sched, samples, opt.seed)
	for _, p := range topo.procs {
		if p.exited() {
			v.fail("%s exited during the run", p.name)
		}
	}
	if w.WAL {
		e.crashCheck(ctx, w, topo, traceFile, orc, v)
	}

	endToEnd(res, samples, setupS, cpu1-cpu0, rss, v)
	return res, nil
}

// crashCheck is the durability half of the oracle on WAL workloads: force a
// publish, take a reference answer, kill -9, restart with -recover, and
// require every acked edge back and the same answer byte for byte.
func (e *env) crashCheck(ctx context.Context, w workload, topo *topology, traceFile string, orc *oracle, v *verdict) {
	v.Attempted++
	const probe = "/predict?alg=CN&k=50"
	if _, err := control(ctx, http.MethodPost, topo.front.base+"/flush"); err != nil {
		v.fail("crash check: %v", err)
		return
	}
	before, err := control(ctx, http.MethodGet, topo.front.base+probe)
	if err != nil {
		v.fail("crash check: %v", err)
		return
	}
	orc.flushed[orc.edges()] = true
	var hdr readHeader
	if err := json.Unmarshal(before, &hdr); err != nil {
		v.fail("crash check: %v", err)
		return
	}
	if want, err := orc.wantPredict(&hdr.Result, 50); err != nil || !bytes.Equal(want, before) {
		v.fail("crash check: %s after /flush differs from the offline computation (%v)", probe, err)
		return
	}
	topo.kill()
	re, err := e.boot(ctx, w, traceFile, w.Name+"-recovered", true)
	if err != nil {
		v.fail("crash check: restart with -recover: %v", err)
		return
	}
	defer re.kill()
	var h struct {
		TraceEdges int `json:"trace_edges"`
	}
	hb, err := control(ctx, http.MethodGet, re.front.base+"/healthz")
	if err == nil {
		err = json.Unmarshal(hb, &h)
	}
	if err != nil {
		v.fail("crash check: %v", err)
		return
	}
	if h.TraceEdges < orc.edges() {
		v.fail("crash check: recovered %d edges, %d were acked", h.TraceEdges, orc.edges())
		return
	}
	after, err := control(ctx, http.MethodGet, re.front.base+probe)
	switch {
	case err != nil:
		v.fail("crash check: %v", err)
	case !bytes.Equal(before, after):
		v.fail("crash check: %s differs after kill -9 and -recover", probe)
	}
}

// classLatencies returns, per request class, the latencies (ms) of the
// phase that times it: the open loop when the open loop carries the class,
// otherwise the closed loop (ingest_heavy's reads; README, "Reads first").
func classLatencies(samples []sample) map[opClass][]float64 {
	lat := map[opClass]map[phase][]float64{}
	for i := range samples {
		sm := &samples[i]
		if sm.Dropped || sm.Err != nil || sm.Status != http.StatusOK {
			continue
		}
		if lat[sm.Op.Class] == nil {
			lat[sm.Op.Class] = map[phase][]float64{}
		}
		lat[sm.Op.Class][sm.Phase] = append(lat[sm.Op.Class][sm.Phase], sm.latencyMS())
	}
	out := map[opClass][]float64{}
	for c, byPhase := range lat {
		for _, ph := range []phase{phaseOpen, phaseClosed} {
			if xs := byPhase[ph]; len(xs) > 0 {
				out[c] = xs
				break
			}
		}
	}
	return out
}

// informational records the figures that are printed with every run but
// carry no bound, because they do not repeat well enough on a shared
// two-core machine (README, "How the bounds were fixed"): the small
// requests' medians and every tail. A p90 with fewer than minBeyond samples
// beyond it is withheld.
func informational(info map[string]float64, lat map[opClass][]float64) {
	for c, name := range map[opClass]string{opPredict: "predict", opScore: "score", opIngest: "ingest_ack"} {
		xs := lat[c]
		if len(xs) == 0 {
			continue
		}
		if c != opPredict {
			info[name+"_p50_ms"] = median(xs)
		}
		if p90, err := tailPercentile(xs, 0.90); err == nil {
			info[name+"_p90_ms"] = p90
		}
		info[name+"_n"] = float64(len(xs))
	}
	// An ack is either served at once or waits out a scheduler quantum
	// behind two busy cores; the median sits in the gap and flips between
	// the groups, the mean of the middle half moves with their shares.
	if xs := lat[opIngest]; len(xs) > 0 {
		info["ingest_ack_midmean_ms"] = midmean(xs)
	}
}

// endToEnd turns a run's samples into the end-to-end metrics. Latency is
// Done − Due everywhere.
func endToEnd(res *result, samples []sample, setupS []float64, cpuMS, rssMiB float64, v *verdict) {
	count := map[phase]int{}
	var late []float64
	var openOK, closedOK int
	var closedFrom, closedTo time.Duration
	for i := range samples {
		sm := &samples[i]
		count[sm.Phase]++
		if sm.Phase == phaseOpen {
			late = append(late, ms(sm.Sent-sm.Due))
		}
		if sm.Dropped || sm.Err != nil || sm.Status != http.StatusOK {
			continue
		}
		switch sm.Phase {
		case phaseOpen:
			openOK++
		case phaseClosed:
			if closedOK == 0 || sm.Sent < closedFrom {
				closedFrom = sm.Sent
			}
			closedTo = max(closedTo, sm.Done)
			closedOK++
		}
	}
	lat := classLatencies(samples)
	res.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", N: len(setupS)}
	res.Metrics["predict_p50_ms"] = metric{Value: median(lat[opPredict]), Unit: "ms", N: len(lat[opPredict])}
	if span := (closedTo - closedFrom).Seconds(); span > 0 {
		res.Metrics["capacity_rps"] = metric{Value: float64(closedOK) / span, Unit: "ops/s", N: closedOK}
	}
	if openOK > 0 {
		res.Metrics["cpu_ms_per_op"] = metric{Value: cpuMS / float64(openOK), Unit: "ms", N: openOK}
	}
	res.Metrics["rss_peak_mb"] = metric{Value: rssMiB, Unit: "MiB"}

	informational(res.Info, lat)
	if p90, _ := quantile(late, 0.90); len(late) > 0 {
		res.Info["loadgen.late_p90_ms"] = p90
	}
	for ph := phase(0); ph < numPhases; ph++ {
		res.Info["sent."+ph.String()] = float64(count[ph])
	}
	res.Info["oracle.tuples"], res.Info["oracle.checked"] = float64(v.Tuples), float64(v.Checked)
	res.Attempted, res.Failed, res.Problems = v.Attempted, v.Failed, v.Problems
	res.Correct = v.Failed == 0
}
