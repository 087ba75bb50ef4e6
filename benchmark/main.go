// Command benchmark is the system-level benchmark of linkpredd and
// linkpredr: it builds the daemons, spawns them as real processes, drives
// named workloads over loopback HTTP, checks every response against an
// offline oracle and prints the end-to-end metrics (-trace 0), or replays
// the same schedules in process with spans around each layer's public
// functions and prints the per-layer metrics (-trace 1). README.md has the
// glossary; BENCHMARK.json at the repository root names what is reported.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() { os.Exit(run()) }

// run is main with a return code, so that its deferred clean-up — reaping
// the daemons, removing the run directory — happens on every way out,
// a panic included, before the process exits.
func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated graph and of the request schedule")
		seconds      = flag.Float64("seconds", 20, "measured seconds per run: three quarters open loop, one quarter closed loop")
		traced       = flag.Int("trace", 0, "0: real daemons over sockets, end-to-end metrics; 1: in-process replay with spans, per-layer metrics")
		quick        = flag.Bool("quick", false, "smoke mode: graph scaled by 0.15 and 4 measured seconds; percentiles are not trustworthy")
		runs         = flag.Int("runs", 1, "runs per workload on consecutive seeds; with more than one the table shows medians and spreads")
		out          = flag.String("out", "", "write the results of this invocation as JSON to this file")
		compare      = flag.String("compare", "", "compare this invocation's end-to-end medians with a file written by -out, against the bounds in BENCHMARK.json; exit 1 on a regression")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of -runs runs of the same binary and fail if any end-to-end median disagrees by more than its bound")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if runtime.NumCPU() < 2 {
		return fail(errors.New("the load generator needs two cores: one lane would otherwise queue behind the other inside the generator"))
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	if *quick {
		*seconds = 4
	}
	var suite []workload
	if *workloadName == "all" {
		suite = workloads
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		suite = []workload{w}
	}

	e, err := newEnv()
	if err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed := true // until the last line says otherwise; daemon logs are kept on failure
	defer func() { e.close(failed) }()

	if *traced == 0 {
		took, err := e.buildDaemons()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("# built linkpredd and linkpredr in %.1f s (not part of any metric)\n", took.Seconds())
	}
	bench, err := loadBenchmarkJSON(e.root)
	if err != nil {
		return fail(err)
	}
	runSet := func(firstSeed int64) (*report, error) {
		rep := &report{Seconds: *seconds, Traced: *traced == 1}
		for _, w := range suite {
			for i := 0; i < *runs; i++ {
				opt := options{seed: firstSeed + int64(i), seconds: *seconds, quick: *quick, setups: 3}
				var res *result
				var err error
				if *traced == 1 {
					res, err = e.runTraced(ctx, w, opt)
				} else {
					res, err = e.runSocket(ctx, w, opt)
				}
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w.Name, opt.seed, err)
				}
				rep.Runs = append(rep.Runs, res)
				printResult(res, bench)
			}
		}
		return rep, nil
	}

	rep, err := runSet(*seed)
	if err != nil {
		return fail(err)
	}
	ok := rep.correct()
	if *runs > 1 {
		rep.printSpreads(bench)
	}
	if *selfcheck {
		second, err := runSet(*seed)
		if err != nil {
			return fail(err)
		}
		if *runs > 1 {
			second.printSpreads(bench)
		}
		ok = ok && second.correct() && compareReports(rep, second, bench, "first set", "second set", true)
	}
	if *compare != "" {
		old, err := readReport(*compare)
		if err != nil {
			return fail(err)
		}
		ok = compareReports(old, rep, bench, *compare, "this run", false) && ok
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fail(err)
		}
	}
	// The contract's result line: the last line of standard output.
	last := rep.Runs[len(rep.Runs)-1]
	line, _ := json.Marshal(contractLine(last)) // plain numbers and strings
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	failed = false
	return 0
}

// contractLine is the object the driver reads: exactly these four keys, the
// metrics reduced to value and unit.
func contractLine(r *result) map[string]any {
	metrics := map[string]any{}
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printResult lists one run's metrics by name, in BENCHMARK.json's order
// where it names them, with sample counts beside percentiles.
func printResult(r *result, bench *benchmarkJSON) {
	mode := "sockets"
	if r.Traced {
		mode = "traced, in process"
	}
	fmt.Printf("\n== %s  seed %d  %.0f s  (%s)\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	rank := bench.order()
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		if iok != jok {
			return iok
		}
		if iok && ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-34s %14.4f %-8s%s\n", name, m.Value, m.Unit, n)
	}
	info := make([]string, 0, len(r.Info))
	for name := range r.Info {
		info = append(info, name)
	}
	sort.Strings(info)
	for _, name := range info {
		fmt.Printf("  . %-30s %14.4f\n", name, r.Info[name])
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-34s %14.6f %-8s  (%d failed of %d attempted)\n", "error_rate", rate, "fraction", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("  ! %s\n", p)
	}
}
