package wal_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"os"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/serve"
	"linkpred/internal/wal"
)

// checkpointV1 is an LPCKPT01 image written by the version-1 encoder from
// TestCheckpointGolden's fixture case: the whole fixture trace, external
// IDs scrambled by v1ExtID, publish marker {7, all edges, last time},
// replay anchored at segment 3 under the chain value "golden-anchor".
const (
	checkpointV1     = "testdata/checkpoint_v1.ckpt"
	checkpointV1SHA  = "10cac48d3bf7595a9cd7f7ad6347284c8ad3b6fe5f9e1d7fed970427438e43a0"
	checkpointV1Seq  = 3
	checkpointV1Pub  = 7
	checkpointV1Tail = 60
)

func v1ExtID(v graph.NodeID) int64 { return int64(v)*11 + 1000 }

// v1Events returns the fixture trace the checkpoint holds, then the
// tail a server logged after it, as (extU, extV, t) records: the first
// checkpointV1Tail edges of the fixture replayed again at later times, plus
// one brand-new node per ten edges so the tail also grows the ID space.
func v1Events(t *testing.T) (*graph.Trace, []wal.Record) {
	t.Helper()
	tr, err := gen.Generate(gen.Facebook(11).Scaled(0.06))
	if err != nil {
		t.Fatal(err)
	}
	all := &graph.Trace{Name: tr.Name}
	var recs []wal.Record
	next := graph.NodeID(tr.NumNodes())
	add := func(u, v graph.NodeID, tm int64) {
		e, err := all.Append(u, v, tm)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, wal.Record{ExtU: v1ExtID(e.U), ExtV: v1ExtID(e.V), U: e.U, V: e.V, T: e.Time})
	}
	for _, e := range tr.Edges {
		add(e.U, e.V, e.Time)
	}
	last := tr.Edges[len(tr.Edges)-1].Time
	for i, e := range tr.Edges[:checkpointV1Tail] {
		v := e.V
		if i%10 == 0 {
			v, next = next, next+1
		}
		add(e.U, v, last+int64(i+1))
	}
	return tr, recs
}

// logRecords appends recs to a log opened on st, then one publish marker
// covering all of them, and closes it.
func logRecords(t *testing.T, st wal.Storage, recs []wal.Record, pub wal.Publish) {
	t.Helper()
	l, _, err := wal.Open(st, wal.Options{SegmentRecords: 1 << 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.NotePublish(pub); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func predictBody(t *testing.T, s *serve.Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/predict?alg=CN&k=50", nil))
	if rec.Code != 200 {
		t.Fatalf("/predict status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestCheckpointV1Boots holds the one-release read path for version-1
// checkpoints: a server whose log was pruned behind an LPCKPT01 file must
// boot from that file plus its tail segment and answer /predict byte for
// byte like a server that replays the same log from edge zero.
func TestCheckpointV1Boots(t *testing.T) {
	b, err := os.ReadFile(checkpointV1)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != checkpointV1SHA {
		t.Fatalf("%s sha256 = %x, want %s", checkpointV1, sum, checkpointV1SHA)
	}

	tr, recs := v1Events(t)
	m := tr.NumEdges()
	ck, err := wal.DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("decode v1: %v", err)
	}
	if ck.Name != "golden" || len(ck.Edges) != m || len(ck.Arrival) != tr.NumNodes() || len(ck.Rev) != tr.NumNodes() {
		t.Fatalf("decoded %q: %d edges, %d arrivals, %d rev; want golden, %d, %d, %d",
			ck.Name, len(ck.Edges), len(ck.Arrival), len(ck.Rev), m, tr.NumNodes(), tr.NumNodes())
	}
	for i, e := range tr.Edges {
		if ck.Edges[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, ck.Edges[i], e)
		}
	}
	for i, a := range tr.Arrival {
		if ck.Arrival[i] != a || ck.Rev[i] != v1ExtID(graph.NodeID(i)) {
			t.Fatalf("node %d: arrival %d rev %d, want %d and %d", i, ck.Arrival[i], ck.Rev[i], a, v1ExtID(graph.NodeID(i)))
		}
	}
	pub := wal.Publish{Seq: checkpointV1Pub, Edges: uint64(m), Time: tr.Edges[m-1].Time}
	if ck.Pub != pub || ck.FirstSeq != checkpointV1Seq {
		t.Fatalf("publish %+v first segment %d, want %+v and %d", ck.Pub, ck.FirstSeq, pub, checkpointV1Seq)
	}

	// The v1 file plus one tail segment, as a pruned log leaves them.
	tailPub := wal.Publish{Seq: checkpointV1Pub + 1, Edges: uint64(len(recs)), Time: recs[len(recs)-1].T}
	st := wal.NewMemStorage()
	f, err := st.Create("checkpoint.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	logRecords(t, st, recs[m:], tailPub)

	// The same records and markers, logged from edge zero.
	cold := wal.NewMemStorage()
	l, _, err := wal.Open(cold, wal.Options{SegmentRecords: 1 << 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:m] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.NotePublish(pub); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	logRecords(t, cold, recs[m:], tailPub)

	boot := func(st wal.Storage) *serve.Server {
		s, err := serve.New(serve.Config{WAL: st, Workers: 1, Degrade: serve.DegradeConfig{Disabled: true}})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		t.Cleanup(s.Close)
		return s
	}
	got, want := boot(st), boot(cold)
	if h := got.Health(); h.WAL.CheckpointEdges != m || h.WAL.RecoveredTail != uint64(len(recs)-m) || h.TraceEdges != len(recs) {
		t.Fatalf("v1 boot health %+v (trace %d), want checkpoint at %d plus a %d-record tail", *h.WAL, h.TraceEdges, m, len(recs)-m)
	}
	if h := want.Health(); h.WAL.CheckpointEdges != 0 || h.TraceEdges != len(recs) {
		t.Fatalf("cold boot health %+v (trace %d), want no checkpoint and %d edges", *h.WAL, h.TraceEdges, len(recs))
	}
	gb, wb := predictBody(t, got), predictBody(t, want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("v1 boot /predict body differs from cold boot:\n got %s\nwant %s", gb, wb)
	}
}
