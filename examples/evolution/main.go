// Evolution replays a dynamic-network trace and reports how its structure
// changes as it grows — the measurements behind the paper's Figures 1-4 —
// together with the λ₂ series that §4.2 ties to prediction accuracy. It
// also shows CSV interchange: pass a real edge list with -csv to analyze
// your own data.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	linkpred "linkpred"
)

func main() {
	csvPath := flag.String("csv", "", "analyze a real u,v,timestamp edge list instead of a synthetic trace")
	flag.Parse()

	var trace *linkpred.Trace
	var err error
	if *csvPath != "" {
		f, ferr := os.Open(*csvPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		trace, err = linkpred.ReadTraceCSV(f, *csvPath)
	} else {
		trace, err = linkpred.Generate(linkpred.YouTubeConfig(21, 0.3))
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace %q: %d nodes, %d edges\n\n", trace.Name, trace.NumNodes(), trace.NumEdges())

	delta := trace.NumEdges() / 12
	cuts := trace.Cuts(delta)
	fmt.Printf("%8s %8s %10s %8s %8s\n", "edges", "nodes", "avg deg", "assort", "λ₂")
	for i, cut := range cuts {
		g := trace.SnapshotAtEdge(cut.EdgeCount)
		l2 := 0.0
		if i+1 < len(cuts) {
			l2 = linkpred.Lambda2(g, trace.NewEdgesBetween(cut, cuts[i+1]))
		}
		deg := 0.0
		if g.NumNodes() > 0 {
			deg = 2 * float64(g.NumEdges()) / float64(g.NumNodes())
		}
		fmt.Printf("%8d %8d %10.2f %8.3f %8.2f\n",
			g.NumEdges(), g.NumNodes(), deg, linkpred.Assortativity(g), l2)
	}

	// Whole-list quality of a predictor on the final transition, using the
	// AUC the paper contrasts with its top-k accuracy ratio.
	last := len(cuts) - 2
	g := trace.SnapshotAtEdge(cuts[last].EdgeCount)
	truth := linkpred.TruthSet(g, trace.NewEdgesBetween(cuts[last], cuts[last+1]))
	if len(truth) == 0 {
		fmt.Println("\nno predictable new edges in the final transition")
		return
	}
	var pairs []linkpred.Pair
	var labels []bool
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for v := u + 1; int(v) < g.NumNodes(); v += 7 { // sparse sample of the pair space
			if !g.HasEdge(u, v) {
				pairs = append(pairs, linkpred.Pair{U: u, V: v})
			}
		}
	}
	alg, err := linkpred.AlgorithmByName("AA")
	if err != nil {
		log.Fatal(err)
	}
	scores := alg.ScorePairs(g, pairs, linkpred.DefaultOptions())
	for _, p := range pairs {
		labels = append(labels, truth[p.Key()])
	}
	fmt.Printf("\nAA whole-list AUC over a sampled pair space: %.3f\n", linkpred.AUC(scores, labels))
	ranked := linkpred.RankLabels(pairs, scores, truth, 1)
	prec := linkpred.PrecisionAtK(ranked, []int{10, 100, 1000})
	fmt.Printf("precision@10 %.3f  precision@100 %.3f  precision@1000 %.3f\n", prec[0], prec[1], prec[2])
}
