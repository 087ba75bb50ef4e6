package main

import "testing"

func TestCompare(t *testing.T) {
	exact := func(key string, v int64) row { return row{key, v, "bytes", true} }
	ns := func(key string, v int64) row { return row{key, v, "ns", false} }
	for _, tc := range []struct {
		name     string
		old, cur []row
		failed   int
	}{
		{"exact +11% fails", []row{exact("a", 100)}, []row{exact("a", 111)}, 1},
		{"exact +9% passes", []row{exact("a", 100)}, []row{exact("a", 109)}, 0},
		{"exact +10% passes", []row{exact("a", 100)}, []row{exact("a", 110)}, 0},
		{"exact shrinking passes", []row{exact("a", 100)}, []row{exact("a", 1)}, 0},
		{"each grown exact row counts", []row{exact("a", 100), exact("b", 100)}, []row{exact("a", 200), exact("b", 200)}, 2},
		{"10x slower timing row does not fail",
			[]row{exact("a", 100), ns("t", 100)}, []row{exact("a", 100), ns("t", 1000)}, 0},
		{"a key on one side only is ignored",
			[]row{exact("a", 100), exact("gone", 1)}, []row{exact("a", 100), exact("new", 1<<40)}, 0},
		{"no shared exact key fails", []row{exact("a", 100)}, []row{exact("b", 100)}, 1},
		{"a timing-only overlap fails", []row{ns("t", 100), exact("a", 1)}, []row{ns("t", 100), exact("b", 1)}, 1},
		{"a row exact on one side only gates nothing", []row{ns("a", 100)}, []row{exact("a", 100)}, 1},
		{"an empty baseline fails", nil, []row{exact("a", 100)}, 1},
	} {
		if got := compare(tc.old, tc.cur); got != tc.failed {
			t.Errorf("%s: compare = %d failures, want %d", tc.name, got, tc.failed)
		}
	}
}

// TestExactRowsMatchCommittedBaseline is CI's bench-smoke gate inside
// `go test ./...`: the mem and publish sections, re-measured at the
// committed baseline's configuration, go through the same compare against
// the repo's BENCH_predict.json. A change that grows the snapshot's resident
// bytes or a publish's mallocs past 10%, or a baseline that no longer
// shares an exact key with what the tool emits, fails here — in the PR that
// causes it.
func TestExactRowsMatchCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates renren-100k (~10 s)")
	}
	const baseline = "../../BENCH_predict.json"
	old, err := load(baseline)
	if err != nil {
		t.Fatal(err)
	}
	c := defaults
	c.preset, c.k, c.short = old.Preset, old.K, true
	g, _, err := setup(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != old.Nodes || g.NumEdges() != old.Edges {
		t.Fatalf("%s generates %d nodes, %d edges; %s was measured on %d, %d",
			c.preset, g.NumNodes(), g.NumEdges(), baseline, old.Nodes, old.Edges)
	}
	var r report
	memRows(&r, g, c)
	publishRows(&r, c)
	if n := compare(old.Rows, r.Rows); n > 0 {
		t.Errorf("%d exact-row failure(s) against %s (rows above)", n, baseline)
	}
}
