package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
)

// writeLog hashes the bytes and records the size of every Write call, so a
// golden can pin both the checkpoint image and the write chunking the crash
// matrix places its crash points between.
type writeLog struct {
	h      io.Writer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.writes = append(w.writes, len(p))
	return len(p), nil
}

// TestCheckpointGolden pins encodeCheckpoint's output byte for byte. The
// expected digests and write sizes were taken at commit 01a8c60, the last one
// that serialized a Graph.CSR() copy instead of streaming rows, so a
// checkpoint written on either side of that change decodes on the other.
// The second case is large enough for the edge and cols sections to span
// several 64 KiB chunks.
func TestCheckpointGolden(t *testing.T) {
	big, err := gen.Generate(gen.Facebook(11).Scaled(0.5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		tr     *graph.Trace
		sha    string
		writes string
	}{
		{"fixture", testEvents(t),
			"10cac48d3bf7595a9cd7f7ad6347284c8ad3b6fe5f9e1d7fed970427438e43a0",
			"[112 1440 1440 18688 24 1448 9344 32]"},
		{"multi-chunk", big,
			"a1707de70fd1e7a22b5a291eaf9981762056433719063f62ccd07a8241d252b0",
			"[112 12000 12000 65536 65536 65536 11392 24 12008 65536 38464 32]"},
	}
	for _, tc := range cases {
		m := tc.tr.NumEdges()
		rev := make([]int64, tc.tr.NumNodes())
		for i := range rev {
			rev[i] = extID(graph.NodeID(i))
		}
		pub := Publish{Seq: 7, Edges: uint64(m), Time: tc.tr.Edges[m-1].Time}
		var anchor [32]byte
		copy(anchor[:], "golden-anchor")
		for _, g := range []*graph.Graph{
			tc.tr.SnapshotAtEdge(m),
			graph.NewIncrementalBuilder(tc.tr).AtEdge(m),
		} {
			h := sha256.New()
			w := &writeLog{h: h}
			d := CheckpointData{Name: "golden", Arrival: tc.tr.Arrival, Edges: tc.tr.Edges, Rev: rev, Graph: g, Pub: pub}
			if err := encodeCheckpoint(w, d, 3, anchor); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("%s: checkpoint sha256 = %s, want %s", tc.name, got, tc.sha)
			}
			if got := fmt.Sprint(w.writes); got != tc.writes {
				t.Errorf("%s: write sizes = %s, want %s", tc.name, got, tc.writes)
			}
		}
	}
}
