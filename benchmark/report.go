package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the harness
// reads: which metrics are end to end, their direction and their bounds.
type benchmarkJSON struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// order ranks metric names as BENCHMARK.json lists them.
func (b *benchmarkJSON) order() map[string]int {
	rank := map[string]int{}
	for _, m := range append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...) {
		rank[m.Name] = len(rank)
	}
	return rank
}

// report is what one invocation measured; -out writes it and -compare
// reads it back.
type report struct {
	Seconds float64   `json:"seconds"`
	Traced  bool      `json:"traced"`
	Runs    []*result `json:"runs"`
}

func readReport(path string) (*report, error) {
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

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (r *report) correct() bool {
	for _, run := range r.Runs {
		if !run.Correct {
			return false
		}
	}
	return len(r.Runs) > 0
}

// workloadNames lists the report's workloads in first-run order.
func (r *report) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, run := range r.Runs {
		if !seen[run.Workload] {
			seen[run.Workload] = true
			names = append(names, run.Workload)
		}
	}
	return names
}

// values collects one metric of one workload over the report's runs.
func (r *report) values(workload, name string) []float64 {
	var xs []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printSpreads prints, for every end-to-end metric of every workload, the
// median over the runs and the interquartile spread as a share of it — the
// figure each bound must stay above by a factor of three.
func (r *report) printSpreads(bench *benchmarkJSON) {
	fmt.Printf("\n== spread over runs (interquartile distance / median)\n")
	fmt.Printf("%-16s %-22s %12s %8s %7s %5s\n", "workload", "metric", "median", "spread", "bound", "runs")
	for _, w := range r.workloadNames() {
		for _, m := range bench.EndToEnd {
			xs := r.values(w, m.Name)
			if len(xs) == 0 {
				continue
			}
			fmt.Printf("%-16s %-22s %12.4f %8.4f %7.2f %5d\n", w, m.Name, median(xs), spread(xs), m.Bound, len(xs))
		}
	}
}

// compareReports prints the change of every end-to-end median from a to b
// in the direction that counts as worse, judged against the metric's bound,
// and reports whether nothing regressed. An entry whose recorded
// run-to-run spread exceeds the bound is unresolved, neither passed nor
// failed: the data cannot tell a regression from noise. With eitherWay an
// improvement beyond the bound fails too: two sets of runs of one binary
// must simply agree.
func compareReports(a, b *report, bench *benchmarkJSON, aName, bName string, eitherWay bool) bool {
	fmt.Printf("\n== %s -> %s (positive = worse)\n", aName, bName)
	fmt.Printf("%-16s %-22s %12s %12s %8s %7s  %s\n", "workload", "metric", "before", "after", "worse", "bound", "verdict")
	ok := true
	for _, w := range b.workloadNames() {
		for _, m := range bench.EndToEnd {
			xa, xb := a.values(w, m.Name), b.values(w, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(spread(xa), spread(xb)) > m.Bound:
				verdict = "unresolved (spread above bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case eitherWay && -worse > m.Bound:
				verdict = "DISAGREES"
				ok = false
			}
			fmt.Printf("%-16s %-22s %12.4f %12.4f %+8.4f %7.2f  %s\n", w, m.Name, ma, mb, worse, m.Bound, verdict)
		}
	}
	return ok
}
