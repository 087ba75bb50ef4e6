// Command experiments regenerates the paper's tables and figures on the
// synthetic trace analogues and prints the same rows/series the paper
// reports. See DESIGN.md §3 for the experiment index.
//
// Usage:
//
//	experiments -exp all                  # everything (slow at -scale 1)
//	experiments -exp fig5 -scale 0.3      # one experiment, reduced scale
//	experiments -list                     # list experiment IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"linkpred/internal/experiments"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

var experimentIDs = []string{
	"table2", "fig1", "fig2-4", "table4", "fig5", "lambda2", "fig6",
	"table5", "fig7", "fig8", "table6", "fig9", "fig10", "fig11", "fig12",
	"fig13-15", "table7", "table8", "fig16", "missing", "directed", "ensembles", "consistency",
}

// expError records one failed experiment in the metrics report.
type expError struct {
	Experiment string `json:"experiment"`
	Error      string `json:"error"`
}

// report is the schema of the -metrics-out file: the shared telemetry report
// (run stamp, counters, latency histograms, span tree) plus the experiment
// list with any failures.
type report struct {
	obs.Report
	Experiments []string   `json:"experiments"`
	Failures    []expError `json:"failures,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all' (see -list)")
	scale := flag.Float64("scale", 1.0, "trace scale factor (1.0 = reference sizes)")
	seed := flag.Int64("seed", 1, "generation seed")
	seeds := flag.Int("seeds", 5, "snowball seeds for classification experiments")
	sample := flag.Int("sample", 400, "snowball sample size (nodes)")
	stride := flag.Int("stride", 1, "evaluate every stride-th snapshot transition")
	maxTrans := flag.Int("maxtransitions", 0, "cap on transitions per network (0 = all)")
	workers := flag.Int("workers", 0, "worker budget for the sweep fan-out and the predict engine (0 = GOMAXPROCS); results are identical at any count")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metricsOut := flag.String("metrics-out", "", "write the telemetry report (metadata, failures, metrics, span tree) as JSON to this path; implies -obs")
	obsOn := flag.Bool("obs", false, "enable in-process telemetry collection")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060); implies -obs")
	progress := flag.Duration("progress", 0, "log a progress line to stderr at this interval (e.g. 30s); implies -obs")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experimentIDs, "\n"))
		return
	}

	stopProgress, err := obs.Boot(*obsOn || *metricsOut != "", *debugAddr, *progress, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: obs: %v\n", err)
		os.Exit(2)
	}

	c := experiments.DefaultConfig()
	c.Scale = *scale
	c.Seed = *seed
	c.Seeds = *seeds
	c.SampleTarget = *sample
	c.Stride = *stride
	c.MaxTransitions = *maxTrans
	if *workers > 0 {
		c.Workers = *workers
		c.Opt.Workers = *workers
	}
	ctx, root := obs.StartSpan(context.Background(), "experiments")
	c.Ctx = ctx

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experimentIDs
	}
	nets := experiments.LoadNetworks(c)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	// Failed experiments are recorded (stderr + metrics report) and the
	// remaining ones still run; any failure makes the exit status non-zero.
	var failures []expError
	for _, id := range ids {
		cctx, sp := obs.StartSpan(ctx, "exp/"+id)
		cc := c
		cc.Ctx = cctx
		if err := run(w, id, cc, nets); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			failures = append(failures, expError{Experiment: id, Error: err.Error()})
		}
		sp.End()
		w.Flush()
		fmt.Println()
	}
	root.End()
	stopProgress()

	if *metricsOut != "" {
		if err := obs.WriteReport(*metricsOut, report{obs.NewReport(), ids, failures}); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed\n", len(failures), len(ids))
		os.Exit(1)
	}
}

func header(w *tabwriter.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}

func run(w *tabwriter.Writer, id string, c experiments.Config, nets []*experiments.Network) error {
	switch id {
	case "table2":
		header(w, "Table 2: dataset statistics")
		fmt.Fprintln(w, "network\tstart nodes\tstart edges\tend nodes\tend edges\tdelta\tsnapshots")
		for _, r := range experiments.Table2(c) {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
				r.Network, r.StartNodes, r.StartEdges, r.EndNodes, r.EndEdges, r.Delta, r.Snapshots)
		}
	case "fig1":
		header(w, "Figure 1: daily new nodes and edges (10-day buckets)")
		for _, s := range experiments.Figure1(c) {
			fmt.Fprintf(w, "%s\tday\tnew nodes\tnew edges\n", s.Network)
			for d := 0; d < len(s.Day); d += 10 {
				nn, ne := 0, 0
				for j := d; j < d+10 && j < len(s.Day); j++ {
					nn += s.NewNodes[j]
					ne += s.NewEdges[j]
				}
				fmt.Fprintf(w, "\t%d\t%d\t%d\n", d, nn, ne)
			}
		}
	case "fig2-4":
		header(w, "Figures 2-4: average degree / path length / clustering")
		fmt.Fprintln(w, "network\tedges\tavg degree\tavg path len\tclustering")
		for _, s := range experiments.Figures2to4(c) {
			for i := range s.EdgeCount {
				fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.3f\n",
					s.Network, s.EdgeCount[i], s.AvgDegree[i], s.PathLen[i], s.Clustering[i])
			}
		}
	case "table4":
		header(w, "Table 4: best absolute accuracy (%)")
		fmt.Fprintln(w, "network\talgorithm\tbest accuracy %")
		for _, r := range experiments.Table4(c, nets) {
			fmt.Fprintf(w, "%s\t%s\t%.2f\n", r.Network, r.Alg, r.BestAccuracyPct)
		}
	case "fig5":
		header(w, "Figure 5: accuracy ratio over network growth")
		fmt.Fprintln(w, "network\talgorithm\tedge counts → accuracy ratios")
		for _, s := range experiments.Figure5(c, nets) {
			var b strings.Builder
			for i := range s.EdgeCount {
				fmt.Fprintf(&b, "%d:%.1f ", s.EdgeCount[i], s.Ratio[i])
			}
			fmt.Fprintf(w, "%s\t%s\t%s\n", s.Network, s.Alg, b.String())
		}
	case "lambda2":
		header(w, "§4.2: correlation of top-metric accuracy with λ₂")
		fmt.Fprintln(w, "network\ttop metrics\tmean Pearson r")
		for _, r := range experiments.CorrelateLambda2(c, nets, 6) {
			fmt.Fprintf(w, "%s\t%s\t%.2f\n", r.Network, strings.Join(r.TopMetrics, ","), r.Correlation)
		}
	case "fig6":
		header(w, "Figure 6: decision tree choosing the best metric algorithm")
		res := experiments.Figure6(c, nets)
		wins := map[string]int{}
		for _, winner := range res.Winners {
			wins[winner]++
		}
		var names []string
		for n := range wins {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "winner\tsnapshots")
		for _, n := range names {
			fmt.Fprintf(w, "%s\t%d\n", n, wins[n])
		}
		fmt.Fprintln(w, "multi-class tree rules:")
		for _, rule := range res.Rules {
			fmt.Fprintf(w, "\t%s\n", rule)
		}
		fmt.Fprintln(w, "per-algorithm 'good prediction' rules (within 90% of optimal):")
		var algs []string
		for a := range res.BinaryRules {
			algs = append(algs, a)
		}
		sort.Strings(algs)
		for _, a := range algs {
			for _, rule := range res.BinaryRules[a] {
				fmt.Fprintf(w, "\t%s:\t%s\n", a, rule)
			}
		}
	case "table5":
		header(w, "Table 5: share of edges involving the 0.1% most-predicted nodes (renren)")
		fmt.Fprintln(w, "algorithm\tpredicted edges\treal edges")
		n := netByName(nets, "renren")
		rows := experiments.Table5(c, n, []predict.Algorithm{
			predict.Rescal, predict.LRW, predict.KatzLR, predict.LP, predict.BCN, predict.BAA, predict.BRA,
		})
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\n", r.Alg, 100*r.PredictedShare, 100*r.RealShare)
		}
	case "fig7":
		header(w, "Figure 7: degree CCDF of nodes in predicted edges (renren)")
		series := experiments.Figure7(c, netByName(nets, "renren"), fig7Algs())
		fmt.Fprintln(w, "series\tP(deg>=1)\tP(deg>=10)\tP(deg>=50)\tP(deg>=100)")
		for _, s := range series {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", s.Label,
				ccdfAt(s, 1), ccdfAt(s, 10), ccdfAt(s, 50), ccdfAt(s, 100))
		}
	case "fig8":
		header(w, "Figure 8: idle-time CDF of nodes in predicted edges (renren)")
		series := experiments.Figure8(c, netByName(nets, "renren"), fig7Algs())
		fmt.Fprintln(w, "series\tmedian days\tP(idle<=3d)\tP(idle<=10d)")
		for _, s := range series {
			fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%.3f\n", s.Label,
				s.CDF.Quantile(0.5), s.CDF.FractionBelow(3), s.CDF.FractionBelow(10))
		}
	case "table6":
		header(w, "Table 6: classification data instances")
		fmt.Fprintln(w, "network\tsize\ttrain nodes\ttrain edges\ttest nodes\ttest edges\tsample")
		for _, r := range experiments.Table6(c, nets) {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				r.Network, r.Size, r.TrainNodes, r.TrainEdges, r.TestNodes, r.TestEdges, r.SampleSize)
		}
	case "fig9":
		header(w, "Figure 9: four classifiers at θ = 1:1 and 1:50 (facebook small)")
		rows, err := experiments.Figure9(c, netByName(nets, "facebook"))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "classifier\tθ\taccuracy ratio (mean ± std)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t1:%.0f\t%.1f ± %.1f\n", r.Classifier, r.Theta, r.Ratio.Mean, r.Ratio.Std)
		}
	case "fig10":
		header(w, "Figure 10: SVM accuracy ratio vs undersampling ratio θ")
		rows, err := experiments.Figure10(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tθ\taccuracy ratio (mean ± std)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t1:%.0f\t%.1f ± %.1f\n", r.Network, r.Theta, r.Ratio.Mean, r.Ratio.Std)
		}
	case "fig11":
		header(w, "Figure 11: metrics vs SVM on identical sampled data")
		rows, err := experiments.Figure11(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tmethod\taccuracy ratio (mean ± std)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f ± %.1f\n", r.Network, r.Method, r.Ratio.Mean, r.Ratio.Std)
		}
	case "fig12":
		header(w, "Figure 12: cumulative normalized SVM coefficient of top-N metrics")
		series, err := experiments.Figure12(c, nets)
		if err != nil {
			return err
		}
		for _, s := range series {
			fmt.Fprintf(w, "%s\trank\tmetric\tcumulative |w|\n", s.Network)
			for i := range s.MetricRank {
				fmt.Fprintf(w, "\t%d\t%s\t%.3f\n", i+1, s.MetricRank[i], s.Cumulative[i])
			}
		}
	case "fig13-15":
		header(w, "Figures 13-15: temporal CDFs of positive vs negative pairs")
		fmt.Fprintln(w, "network\tmeasure\tpositive\tnegative")
		for _, r := range experiments.Figures13to15(c, nets) {
			fmt.Fprintf(w, "%s\tP(active idle <= 3d)\t%.3f\t%.3f\n", r.Network,
				r.PosActiveIdle.FractionBelow(3), r.NegActiveIdle.FractionBelow(3))
			fmt.Fprintf(w, "%s\tP(inactive idle <= 20d)\t%.3f\t%.3f\n", r.Network,
				r.PosInactiveIdle.FractionBelow(20), r.NegInactiveIdle.FractionBelow(20))
			fmt.Fprintf(w, "%s\tP(7-day edges >= 3)\t%.3f\t%.3f\n", r.Network,
				1-r.PosNewEdges.FractionBelow(2.5), 1-r.NegNewEdges.FractionBelow(2.5))
			fmt.Fprintf(w, "%s\tP(CN gap <= 10d)\t%.3f\t%.3f\n", r.Network,
				r.PosCNGap.FractionBelow(10), r.NegCNGap.FractionBelow(10))
		}
	case "table7":
		header(w, "Table 7: temporal filter parameters")
		fmt.Fprintln(w, "network\td_act\td_inact\twindow d\tE_new\td_CN")
		for _, r := range experiments.Table7(nets) {
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%d\t%d\t%.0f\n", r.Network,
				r.Config.ActIdleDays, r.Config.InactIdleDays, r.Config.WindowDays,
				r.Config.MinNewEdges, r.Config.CNGapDays)
		}
	case "table8":
		header(w, "Table 8: accuracy ratio after filtering / before filtering")
		rows, err := experiments.Table8(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tmethod\tunfiltered\tfiltered\timprovement")
		for _, r := range rows {
			imp := "-"
			if r.Unfiltered > 0 {
				imp = fmt.Sprintf("%.1fx", r.Improvement)
			}
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%s\n", r.Network, r.Method, r.Unfiltered, r.Filtered, imp)
		}
	case "fig16":
		header(w, "Figure 16: temporal filters vs time-series (MA) models")
		rows, err := experiments.Figure16(c, nets, 4)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tmetric\tbasic\tbasic+filter\ttime model\ttime model+filter")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.Network, r.Metric, r.Basic, r.BasicFiltered, r.TimeModel, r.TimeModelFiltered)
		}
	case "missing":
		header(w, "Extra: missing-link detection (hide 10%, recover)")
		rows, err := experiments.MissingLinks(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\talgorithm\trecovered\tratio\tAUC")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d/%d\t%.1fx\t%.3f\n", r.Network, r.Alg, r.Recovered, r.Hidden, r.Ratio, r.AUC)
		}
	case "directed":
		header(w, "Extra: directed link prediction (initiator → target)")
		rows, err := experiments.Directed(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tscorer\thits\tratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%.1fx\n", r.Network, r.Scorer, r.Hits, r.Ratio)
		}
	case "ensembles":
		header(w, "Extra: ensemble size vs accuracy (intro claim)")
		rows, err := experiments.Ensembles(c, netByName(nets, "renren"))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tmethod\taccuracy ratio (mean ± std)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f ± %.1f\n", r.Network, r.Method, r.Ratio.Mean, r.Ratio.Std)
		}
	case "consistency":
		header(w, "Extra: metric-ranking consistency, small vs large instances")
		rows, err := experiments.Consistency(c, nets)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "network\tSpearman\tsmall top\tlarge top")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.2f\t%s\t%s\n", r.Network, r.Spearman, r.SmallTop, r.LargeTop)
		}
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}

func netByName(nets []*experiments.Network, name string) *experiments.Network {
	for _, n := range nets {
		if n.Cfg.Name == name {
			return n
		}
	}
	panic("unknown network " + name)
}

func fig7Algs() []predict.Algorithm {
	return []predict.Algorithm{predict.BCN, predict.JC, predict.LP, predict.PPR, predict.Rescal}
}

func ccdfAt(s experiments.Figure7Series, deg int) float64 {
	// Degrees ascending, Frac[i] = P(degree >= Degrees[i]); P(degree >=
	// deg) is the fraction at the first threshold >= deg.
	for i, d := range s.Degrees {
		if d >= deg {
			return s.Frac[i]
		}
	}
	return 0
}
