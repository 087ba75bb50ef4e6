package wal

import (
	"errors"
	"testing"

	"linkpred/internal/graph"
)

// TestOpenRefusesContradictoryRecords pins the replay's assertions on
// records whose frames are intact: every log here is written through
// Log.Append, so each frame's CRC and the segment chain are valid, and
// only what a record says contradicts the admission rule or the recovered
// prefix. Open must refuse each with ErrCorrupt rather than recover a
// trace the writer never held.
func TestOpenRefusesContradictoryRecords(t *testing.T) {
	// rec is one logged event: external endpoints, the dense IDs and the
	// time the writer claims it applied.
	rec := func(extU, extV int64, u, v graph.NodeID, tm int64) Record {
		return Record{ExtU: extU, ExtV: extV, U: u, V: v, T: tm}
	}
	for _, tc := range []struct {
		name string
		recs []Record
		// ckpt, when set, checkpoints this trace prefix and ID table after
		// the records are committed.
		ckpt *CheckpointData
	}{
		{
			name: "dense ID out of first-seen order",
			recs: []Record{rec(10, 20, 0, 1, 5), rec(30, 10, 3, 0, 6)},
		},
		{
			name: "external ID mapped to a second dense ID",
			recs: []Record{rec(10, 20, 0, 1, 5), rec(10, 30, 2, 3, 6)},
		},
		{
			name: "time the clamp would not produce",
			recs: []Record{rec(10, 20, 0, 1, 100), rec(20, 30, 1, 2, 50)},
		},
		{
			name: "record below the prefix contradicts its edge",
			recs: []Record{rec(10, 20, 0, 1, 5), rec(20, 30, 1, 2, 6), rec(30, 10, 2, 0, 7)},
			ckpt: &CheckpointData{
				Arrival: []int64{5, 5, 6},
				Edges:   []graph.Edge{{U: 0, V: 1, Time: 5}, {U: 0, V: 2, Time: 6}},
				Rev:     []int64{10, 20, 30},
				Pub:     Publish{Seq: 1, Edges: 2, Time: 6},
			},
		},
		{
			name: "record below the prefix contradicts its ID table",
			recs: []Record{rec(10, 20, 0, 1, 5), rec(20, 30, 1, 2, 6), rec(30, 10, 2, 0, 7)},
			ckpt: &CheckpointData{
				Arrival: []int64{5, 5, 6},
				Edges:   []graph.Edge{{U: 0, V: 1, Time: 5}, {U: 1, V: 2, Time: 6}},
				Rev:     []int64{10, 20, 40},
				Pub:     Publish{Seq: 1, Edges: 2, Time: 6},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStorage()
			l, _, err := Open(st, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.recs {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if tc.ckpt != nil {
				if err := l.WriteCheckpoint(*tc.ckpt); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec, err := Open(st, Options{}, nil)
			if !errors.Is(err, ErrCorrupt) {
				n := -1
				if rec != nil {
					n = len(rec.Trace.Edges)
				}
				t.Fatalf("Open = %v (recovered %d edges), want ErrCorrupt", err, n)
			}
			t.Log(err)
		})
	}
}
