// Command tracegen generates a synthetic dynamic-network trace from one of
// the paper-analogue presets and writes it in the linkpred binary trace
// format.
//
// Usage:
//
//	tracegen -preset renren -scale 0.5 -seed 7 -out renren.trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"linkpred/internal/gen"
	"linkpred/internal/obs"
)

func main() {
	preset := flag.String("preset", "facebook", "trace preset: facebook, youtube, renren, renren-100k, renren-1m")
	scale := flag.Float64("scale", 1.0, "size scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("out", "", "output file (default <preset>.trace)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry report as JSON to this path; implies -obs")
	obsOn := flag.Bool("obs", false, "enable in-process telemetry collection")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address; implies -obs")
	progress := flag.Duration("progress", 0, "log a progress line to stderr at this interval; implies -obs")
	flag.Parse()

	stopProgress, err := obs.Boot(*obsOn || *metricsOut != "", *debugAddr, *progress, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: obs: %v\n", err)
		os.Exit(2)
	}

	cfg, err := gen.ByName(*preset, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	cfg = cfg.Scaled(*scale)

	ctx, root := obs.StartSpan(context.Background(), "tracegen")
	tr, err := gen.GenerateCtx(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *preset + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: write: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: close: %v\n", err)
		os.Exit(1)
	}
	root.End()
	stopProgress()
	if *metricsOut != "" {
		if err := obs.WriteReport(*metricsOut, obs.NewReport()); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: metrics-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	fmt.Printf("wrote %s: %d nodes, %d edges over %d days (delta %d → %d snapshots)\n",
		path, tr.NumNodes(), tr.NumEdges(), cfg.Days,
		gen.DefaultDelta(cfg), len(tr.Cuts(gen.DefaultDelta(cfg))))
}
