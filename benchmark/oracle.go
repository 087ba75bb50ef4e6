package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"linkpred/internal/graph"
	"linkpred/internal/predict"
	"linkpred/internal/serve"
)

// snapshotEvery is linkpredd's default publish cadence (-snapshot-every),
// which every workload runs with.
const snapshotEvery = 512

// maxPredictChecks caps how many distinct /predict tuples a run recomputes
// offline. Each costs one full sweep (~50 ms at scale 1) of harness time
// that no metric includes but the driver's wall-clock budget does; beyond
// the cap a seeded sample is checked. Identity within a tuple is checked
// for every response regardless.
const maxPredictChecks = 40

// oracle is the harness's own copy of what the server must hold: the boot
// trace plus every acked event, replayed through graph.Trace.Append with
// the same first-seen external→dense remap serve.Ingest applies. Responses
// are checked against predict.ByName(...).Predict / ScorePairs on
// snapshots cut from it.
type oracle struct {
	opt   predict.Options
	trace *graph.Trace
	remap map[int64]graph.NodeID
	rev   []int64
	warm  int // boot edges
	// bootNodes is the boot trace's node count.
	bootNodes int
	// nodesAt[i] is the node count right after edge warm+i was appended: a
	// snapshot published at that edge holds exactly those nodes, even if a
	// later edge brings a node with the same timestamp.
	nodesAt []int32
	acks    []ack
	// flushed holds the trace lengths at which the harness forced a publish
	// (POST /flush), the only legal snapshot sizes off the 512 grid.
	flushed map[int]bool

	lastEdges int // single-entry snapshot cache
	lastGraph *graph.Graph
}

// ack records that by time At (offset from the run epoch) the server had
// acknowledged the first Edges trace edges.
type ack struct {
	At    time.Duration
	Edges int
}

func newOracle(warm *graph.Trace) *oracle {
	o := &oracle{
		opt:       predict.DefaultOptions(),
		trace:     cloneTrace(warm),
		remap:     make(map[int64]graph.NodeID, len(warm.Arrival)),
		rev:       make([]int64, len(warm.Arrival)),
		warm:      len(warm.Edges),
		bootNodes: len(warm.Arrival),
		flushed:   map[int]bool{},
		lastEdges: -1,
	}
	o.opt.Workers = 1
	for i := range o.rev {
		o.rev[i] = int64(i)
		o.remap[int64(i)] = graph.NodeID(i)
	}
	return o
}

func (o *oracle) dense(id int64) graph.NodeID {
	if d, ok := o.remap[id]; ok {
		return d
	}
	d := graph.NodeID(len(o.rev))
	o.remap[id] = d
	o.rev = append(o.rev, id)
	return d
}

// apply replays one acked batch and returns how many events the server
// must have accepted.
func (o *oracle) apply(events []serve.Event, at time.Duration) int {
	accepted := 0
	for _, ev := range events {
		if ev.U < 0 || ev.V < 0 || ev.U == ev.V {
			continue
		}
		if _, err := o.trace.Append(o.dense(ev.U), o.dense(ev.V), ev.T); err != nil {
			continue
		}
		accepted++
		o.nodesAt = append(o.nodesAt, int32(len(o.trace.Arrival)))
	}
	o.acks = append(o.acks, ack{At: at, Edges: len(o.trace.Edges)})
	return accepted
}

// edges is the acked trace length.
func (o *oracle) edges() int { return len(o.trace.Edges) }

// publishedBy returns the smallest snapshot size a read sent at time sent
// may legally report: the last publish boundary covered by edges acked
// strictly before it.
func (o *oracle) publishedBy(sent time.Duration) int {
	i := sort.Search(len(o.acks), func(i int) bool { return o.acks[i].At >= sent })
	if i == 0 {
		return o.warm
	}
	acked := o.acks[i-1].Edges
	floor := o.warm + (acked-o.warm)/snapshotEvery*snapshotEvery
	for f := range o.flushed {
		if f <= acked && f > floor {
			floor = f
		}
	}
	return floor
}

// snapshotAt rebuilds the snapshot the server published at m edges.
func (o *oracle) snapshotAt(m int) (*graph.Graph, error) {
	if m == o.lastEdges {
		return o.lastGraph, nil
	}
	if m < o.warm || m > len(o.trace.Edges) {
		return nil, fmt.Errorf("snapshot_edges %d outside [%d, %d], the boot trace and the acked edges", m, o.warm, len(o.trace.Edges))
	}
	if (m-o.warm)%snapshotEvery != 0 && !o.flushed[m] {
		return nil, fmt.Errorf("snapshot_edges %d is not a publish boundary", m)
	}
	n := o.bootNodes
	if m > o.warm {
		n = int(o.nodesAt[m-o.warm-1])
	}
	view := &graph.Trace{Arrival: o.trace.Arrival[:n], Edges: o.trace.Edges[:m]}
	o.lastEdges, o.lastGraph = m, view.SnapshotAtEdge(m)
	return o.lastGraph, nil
}

func encodeResult(res *serve.Result) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(res) // a Result of numbers and strings always encodes
	return buf.Bytes()
}

// wantPredict is the byte-exact body a full /predict answer must have.
func (o *oracle) wantPredict(got *serve.Result, k int) ([]byte, error) {
	g, err := o.snapshotAt(got.SnapshotEdges)
	if err != nil {
		return nil, err
	}
	alg, err := predict.ByName(got.ServedBy)
	if err != nil {
		return nil, err
	}
	pairs := alg.Predict(g, k, o.opt)
	want := *got
	want.SnapshotTime = g.Time
	want.Pairs = make([]serve.PairScore, len(pairs))
	for i, p := range pairs {
		want.Pairs[i] = serve.PairScore{U: o.rev[p.U], V: o.rev[p.V], Score: p.Score}
	}
	return encodeResult(&want), nil
}

// wantScore is the byte-exact body a /score answer must have.
func (o *oracle) wantScore(got *serve.Result, ext [][2]int64) ([]byte, error) {
	g, err := o.snapshotAt(got.SnapshotEdges)
	if err != nil {
		return nil, err
	}
	alg, err := predict.ByName(got.ServedBy)
	if err != nil {
		return nil, err
	}
	n := graph.NodeID(g.NumNodes())
	want := *got
	want.SnapshotTime = g.Time
	want.Pairs = make([]serve.PairScore, len(ext))
	var flat []predict.Pair
	at := make([]int, len(ext))
	for i, p := range ext {
		u, uok := o.remap[p[0]]
		v, vok := o.remap[p[1]]
		at[i] = -1
		if uok && vok && u < n && v < n {
			at[i] = len(flat)
			flat = append(flat, predict.Pair{U: u, V: v})
		}
	}
	var vals []float64
	if len(flat) > 0 {
		vals = alg.ScorePairs(g, flat, o.opt)
	}
	for i, p := range ext {
		want.Pairs[i] = serve.PairScore{U: p[0], V: p[1]}
		if at[i] >= 0 {
			want.Pairs[i].Score = vals[at[i]]
		}
	}
	return encodeResult(&want), nil
}

// verdict is the outcome of checking one run's responses.
type verdict struct {
	Attempted int
	Failed    int
	Checked   int      // tuples recomputed offline
	Tuples    int      // distinct tuples seen
	Problems  []string // first few failures, for the log
}

func (v *verdict) fail(format string, args ...any) {
	v.Failed++
	if len(v.Problems) < 12 {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
}

// readHeader is the part of a response the oracle keys on. Partial is the
// router's flag for a gather that missed a shard.
type readHeader struct {
	serve.Result
	Partial bool `json:"partial"`
}

type ingestAck struct {
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	TraceEdges  int `json:"trace_edges"`
	ShardErrors int `json:"shard_errors"`
}

// verify replays the run. samples must be in send order per lane with every
// ingest on one lane; it mirrors acked batches, then checks every read for
// (a) byte identity with every other response of its tuple, (b) equality
// with the offline computation for one response per tuple, and (c)
// freshness against the acks that preceded it.
func (o *oracle) verify(s *schedule, samples []sample, seed int64) *verdict {
	v := &verdict{Attempted: len(samples)}

	// Pass 1: acks, in send order.
	var ingests []*sample
	for i := range samples {
		if samples[i].Op.Class == opIngest {
			ingests = append(ingests, &samples[i])
		}
	}
	sort.SliceStable(ingests, func(i, j int) bool { return ingests[i].Sent < ingests[j].Sent })
	for _, sm := range ingests {
		if !sm.ok(v) {
			continue
		}
		var a ingestAck
		if err := json.Unmarshal(sm.Body, &a); err != nil {
			v.fail("ingest [%d,%d): bad ack: %v", sm.Op.Lo, sm.Op.Hi, err)
			continue
		}
		want := o.apply(s.Events[sm.Op.Lo:sm.Op.Hi], sm.Done)
		if a.Accepted != want || a.Rejected != sm.Op.Hi-sm.Op.Lo-want || a.TraceEdges != o.edges() || a.ShardErrors != 0 {
			v.fail("ingest [%d,%d): ack %+v, oracle accepted %d and holds %d edges", sm.Op.Lo, sm.Op.Hi, a, want, o.edges())
		}
	}

	// Pass 2: reads, grouped by tuple.
	type group struct {
		first *sample
		hdr   readHeader
	}
	groups := map[string]*group{}
	var order []string
	for i := range samples {
		sm := &samples[i]
		if sm.Op.Class == opIngest || !sm.ok(v) {
			continue
		}
		var h readHeader
		if err := json.Unmarshal(sm.Body, &h); err != nil {
			v.fail("%s %s: bad body: %v", sm.Op.Class, sm.Op.Alg, err)
			continue
		}
		if h.Partial {
			v.fail("%s %s k=%d: partial gather", sm.Op.Class, sm.Op.Alg, sm.Op.K)
			continue
		}
		if floor := o.publishedBy(sm.Sent); h.SnapshotEdges < floor {
			v.fail("%s %s: stale epoch: snapshot_edges %d, but %d were published by acks before the request was sent",
				sm.Op.Class, sm.Op.Alg, h.SnapshotEdges, floor)
			continue
		}
		key := fmt.Sprintf("%d|%s|%s|%d|%d|%d", sm.Op.Class, sm.Op.Alg, h.ServedBy, sm.Op.K, sm.Op.Pairs, h.SnapshotEdges)
		g, seen := groups[key]
		if !seen {
			groups[key] = &group{first: sm, hdr: h}
			order = append(order, key)
			continue
		}
		if !bytes.Equal(sm.Body, g.first.Body) {
			v.fail("%s %s k=%d @%d edges: two responses of one tuple differ", sm.Op.Class, sm.Op.Alg, sm.Op.K, h.SnapshotEdges)
		}
	}
	v.Tuples = len(order)

	// Pass 3: one offline recomputation per tuple, predicts sampled beyond
	// the cap, in snapshot order so each snapshot is rebuilt once.
	var predicts, check []string
	for _, key := range order {
		if groups[key].first.Op.Class == opPredict {
			predicts = append(predicts, key)
		} else {
			check = append(check, key)
		}
	}
	if len(predicts) > maxPredictChecks {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(predicts), func(i, j int) { predicts[i], predicts[j] = predicts[j], predicts[i] })
		predicts = predicts[:maxPredictChecks]
	}
	check = append(check, predicts...)
	sort.SliceStable(check, func(i, j int) bool {
		return groups[check[i]].hdr.SnapshotEdges < groups[check[j]].hdr.SnapshotEdges
	})
	for _, key := range check {
		g := groups[key]
		sm, h := g.first, g.hdr
		var want []byte
		var err error
		if sm.Op.Class == opPredict {
			want, err = o.wantPredict(&h.Result, sm.Op.K)
		} else {
			want, err = o.wantScore(&h.Result, s.PairLists[sm.Op.Pairs])
		}
		v.Checked++
		switch {
		case err != nil:
			v.fail("%s %s k=%d: %v", sm.Op.Class, sm.Op.Alg, sm.Op.K, err)
		case !bytes.Equal(want, sm.Body):
			v.fail("%s %s (served by %s) k=%d @%d edges: response differs from the offline computation",
				sm.Op.Class, sm.Op.Alg, h.ServedBy, sm.Op.K, h.SnapshotEdges)
		}
	}
	return v
}
