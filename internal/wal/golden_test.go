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

// TestCheckpointGolden pins encodeCheckpoint's output byte for byte: the
// version-2 image (trace prefix and ID map, no snapshot section) and the
// write sizes the crash matrix places its crash points between. The
// second case is large enough for the edge section to span several 64 KiB
// chunks. The version-1 image of the fixture case is checked in as
// testdata/checkpoint_v1.ckpt and held by TestCheckpointV1Boots.
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
			"5ff2cae2dc64a5585a5ff0a08706dd03f52c85dbaefcc432101439fd95b8df6e",
			"[112 1440 1440 18688 32]"},
		{"multi-chunk", big,
			"d38c15a5fbe9b69299ce98636110e484377d5368b990cdf348eb27242de4c40f",
			"[112 12000 12000 65536 65536 65536 11392 32]"},
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
		h := sha256.New()
		w := &writeLog{h: h}
		d := CheckpointData{Name: "golden", Arrival: tc.tr.Arrival, Edges: tc.tr.Edges, Rev: rev, Pub: pub}
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
