package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/serve"
)

type opClass uint8

const (
	opPredict opClass = iota
	opScore
	opIngest
)

func (c opClass) String() string {
	return [...]string{"predict", "score", "ingest"}[c]
}

// op is one scheduled request. Which fields matter depends on Class.
type op struct {
	Class opClass
	// Due is the offset from the start of the open loop at which the request
	// is owed; latency counts from it. Zero in every other phase.
	Due time.Duration
	Alg string
	K   int // predict: list length
	// Pairs indexes schedule.PairLists (score). Lo/Hi slice schedule.Events
	// (ingest).
	Pairs  int
	Lo, Hi int
}

// mix is one group of (algorithm, k) choices. Each draw takes the next
// entry of a seeded shuffle of the full cross product of a stream's groups,
// so every seed sends the same multiset of tuples per cycle and only their
// order differs: the share of expensive requests, which sets the latency
// tail, is a property of the workload and not of the seed.
type mix struct {
	Algs []string
	Ks   []int // discrete list lengths; empty means uniform in [KLo, KHi]
	KLo  int
	KHi  int
}

// stream is one paced request class on a lane.
type stream struct {
	Class opClass
	Rate  float64 // requests per second in the open loop
	Mix   []mix   // predict and score
	Batch int     // ingest: events per request
}

// workload is one named traffic mix against one topology. See README.md
// for why each exists; the one-line versions live in BENCHMARK.json.
type workload struct {
	Name  string
	Scale float64 // gen.Renren(seed).Scaled(Scale)
	// WarmFrac is the share of the trace loaded at boot; the rest is the
	// tail the ingest streams replay.
	WarmFrac float64
	WAL      bool
	NoWarm   bool // linkpredd -warm=false
	// Shards > 0 puts linkpredr in front of that many replicated
	// linkpredd -workers 1; 0 is a single linkpredd.
	Shards int
	// Lanes are the two open-loop lanes. A lane is one connection that
	// executes its ops strictly in due order, so exactly one lane may carry
	// ingest (edge order, and with it dense-ID assignment, stays defined).
	Lanes [2][]stream
	// ClosedMix is the read mix both senders draw from in the closed loop.
	ClosedMix []stream
	// ClosedFirst runs the closed loop before the open loop: on
	// ingest_heavy the open loop spends the tail and grows the graph eight
	// fold, so the read capacity figure is taken on the boot graph.
	ClosedFirst bool
}

var (
	localFive  = []string{"CN", "AA", "RA", "JC", "BCN"}
	localThree = []string{"CN", "AA", "RA"}
)

// workloads is the frozen suite. Rates are absolute and do not change once
// BENCHMARK.json is committed: a later change is compared at the same
// offered load, not the same utilisation.
var workloads = []workload{
	{
		Name: "read_static", Scale: 1, WarmFrac: 1,
		Lanes: [2][]stream{
			{{Class: opPredict, Rate: 8, Mix: []mix{
				{Algs: localFive, Ks: []int{20, 100}},              // 10 tuples ...
				{Algs: []string{"Katz", "Rescal"}, Ks: []int{100}}, // ... to 2: a sixth latent
			}}},
			{{Class: opScore, Rate: 12, Mix: []mix{{Algs: []string{"AA", "CN", "Katz"}}}}},
		},
	},
	{
		Name: "live_durable", Scale: 1, WarmFrac: 0.6, WAL: true,
		Lanes: [2][]stream{
			{{Class: opPredict, Rate: 8, Mix: []mix{{Algs: localThree, KLo: 10, KHi: 200}}}},
			{
				{Class: opIngest, Rate: 8, Batch: 48},
				{Class: opScore, Rate: 10, Mix: []mix{{Algs: []string{"AA", "CN"}}}},
			},
		},
	},
	{
		Name: "ingest_heavy", Scale: 4, WarmFrac: 0.2, WAL: true, NoWarm: true,
		Lanes: [2][]stream{
			{{Class: opIngest, Rate: 40, Batch: 256}},
			{{Class: opScore, Rate: 20, Mix: []mix{{Algs: []string{"AA"}}}}},
		},
		ClosedMix: []stream{
			{Class: opPredict, Rate: 1, Mix: []mix{{Algs: []string{"CN", "AA"}, Ks: []int{20, 100}}}},
			{Class: opScore, Rate: 2, Mix: []mix{{Algs: []string{"AA"}}}},
		},
		ClosedFirst: true,
	},
	{
		Name: "cluster_scatter", Scale: 1, WarmFrac: 0.6, Shards: 2,
		Lanes: [2][]stream{
			{{Class: opPredict, Rate: 8, Mix: []mix{{Algs: []string{"CN", "AA", "RA", "BCN"}, Ks: []int{20, 100}}}}},
			{
				{Class: opIngest, Rate: 8, Batch: 8},
				{Class: opScore, Rate: 10, Mix: []mix{{Algs: []string{"AA", "CN"}}}},
			},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// readStreams returns the workload's closed-loop mix: ClosedMix when set,
// otherwise every read stream of both lanes weighted by its open-loop rate.
func (w workload) readStreams() []stream {
	if w.ClosedMix != nil {
		return w.ClosedMix
	}
	var out []stream
	for _, lane := range w.Lanes {
		for _, s := range lane {
			if s.Class != opIngest {
				out = append(out, s)
			}
		}
	}
	return out
}

const (
	scorePairs    = 64 // pairs per /score request
	pairListCount = 16 // distinct pair lists a workload re-asks
	// closedCycle is the length of the closed-loop programme each sender
	// repeats; long enough to hold every tuple of the widest mix.
	closedCycle = 60
)

// phases splits the measured seconds between the open and the closed loop.
func phases(seconds float64) (open, closed time.Duration) {
	open = time.Duration(seconds * 0.75 * float64(time.Second))
	return open, time.Duration(seconds*float64(time.Second)) - open
}

// schedule is everything a run sends, fixed before the first daemon boots.
// It is a pure function of (workload, seed, seconds): the parent commit and
// a change are offered byte-identical traffic.
type schedule struct {
	Warm      *graph.Trace  `json:"-"` // boot trace
	Events    []serve.Event // the tail, in trace order
	PairLists [][][2]int64
	// Warmup is sent back to back before anything is timed: one request per
	// distinct tuple, so lazily built state (latent factors, connection
	// set-up) is paid for in setup_s and not in the first timed requests.
	Warmup []op
	Open   [2][]op
	Closed [2][]op // each sender cycles through its own programme
	// IngestShort is set when the tail ran out before the ingest stream did.
	IngestShort bool
}

// tuple is one (algorithm, k) choice; K == 0 means "draw k uniformly from
// [KLo, KHi] when sent".
type tuple struct {
	Alg         string
	K, KLo, KHi int
}

// drawer hands out tuples for one stream.
type drawer struct {
	rng   *rand.Rand
	mixes []mix
	cycle []tuple // what is left of the current shuffled cycle
}

func newDrawer(rng *rand.Rand, mixes []mix) *drawer {
	return &drawer{rng: rng, mixes: mixes}
}

func (d *drawer) next() (alg string, k int) {
	if len(d.cycle) == 0 {
		for _, m := range d.mixes {
			ks := m.Ks
			if len(ks) == 0 {
				ks = []int{0}
			}
			for _, a := range m.Algs {
				for _, k := range ks {
					d.cycle = append(d.cycle, tuple{Alg: a, K: k, KLo: m.KLo, KHi: m.KHi})
				}
			}
		}
		d.rng.Shuffle(len(d.cycle), func(i, j int) { d.cycle[i], d.cycle[j] = d.cycle[j], d.cycle[i] })
	}
	t := d.cycle[len(d.cycle)-1]
	d.cycle = d.cycle[:len(d.cycle)-1]
	if t.K == 0 && t.KHi > 0 {
		t.K = t.KLo + d.rng.Intn(t.KHi-t.KLo+1)
	}
	return t.Alg, t.K
}

// tuples lists every distinct (alg, k) a stream can send; a k range
// contributes its two ends.
func (s stream) tuples() []tuple {
	var out []tuple
	for _, m := range s.Mix {
		ks := m.Ks
		if len(ks) == 0 {
			ks = []int{m.KLo, m.KHi}
		}
		for _, a := range m.Algs {
			for _, k := range ks {
				out = append(out, tuple{Alg: a, K: k})
			}
		}
	}
	return out
}

// generateTrace makes the workload's graph. quick shrinks it so the smoke
// test finishes in seconds.
func generateTrace(w workload, seed int64, quick bool) (*graph.Trace, error) {
	scale := w.Scale
	if quick {
		scale *= 0.15
	}
	return gen.Generate(gen.Renren(seed).Scaled(scale))
}

// splitTrace cuts the generated trace into the boot trace and the tail.
// The boot trace keeps exactly the nodes that have arrived by its last
// edge, so it passes Trace.Validate; later nodes reach the server through
// ingest and are assigned dense IDs there in first-seen order.
func splitTrace(w workload, tr *graph.Trace) (*graph.Trace, []serve.Event) {
	m := int(float64(len(tr.Edges)) * w.WarmFrac)
	if m < 1 {
		m = 1
	}
	tm := tr.Edges[m-1].Time
	n := sort.Search(len(tr.Arrival), func(i int) bool { return tr.Arrival[i] > tm })
	warm := &graph.Trace{
		Name:    tr.Name,
		Arrival: append([]int64(nil), tr.Arrival[:n]...),
		Edges:   append([]graph.Edge(nil), tr.Edges[:m]...),
	}
	events := make([]serve.Event, 0, len(tr.Edges)-m)
	for _, e := range tr.Edges[m:] {
		events = append(events, serve.Event{U: int64(e.U), V: int64(e.V), T: e.Time})
	}
	return warm, events
}

// makePairLists draws the candidate-pair lists /score requests re-ask: half
// two-hop pairs (what a re-ranker would actually hold), half uniform pairs,
// all between nodes of the boot graph so every endpoint is known to the
// server from the first request on.
func makePairLists(rng *rand.Rand, warm *graph.Trace) [][][2]int64 {
	g := warm.SnapshotAtEdge(len(warm.Edges))
	n := g.NumNodes()
	lists := make([][][2]int64, pairListCount)
	for i := range lists {
		list := make([][2]int64, 0, scorePairs)
		for len(list) < scorePairs {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if len(list)%2 == 0 {
				if nb := g.Neighbors(u); len(nb) > 0 {
					if nb2 := g.Neighbors(nb[rng.Intn(len(nb))]); len(nb2) > 0 {
						v = nb2[rng.Intn(len(nb2))]
					}
				}
			}
			if u != v {
				list = append(list, [2]int64{int64(u), int64(v)})
			}
		}
		lists[i] = list
	}
	return lists
}

// buildSchedule fixes every request of a run.
func buildSchedule(w workload, seed int64, seconds float64, tr *graph.Trace) *schedule {
	s := &schedule{}
	s.Warm, s.Events = splitTrace(w, tr)
	rng := func(purpose int64) *rand.Rand {
		return rand.New(rand.NewSource(seed*1_000_003 + purpose))
	}
	s.PairLists = makePairLists(rng(1), s.Warm)

	next := 0 // next unsent tail event
	ingest := func(batch int) (op, bool) {
		if next+batch > len(s.Events) {
			s.IngestShort = true
			return op{}, false
		}
		o := op{Class: opIngest, Lo: next, Hi: next + batch}
		next += batch
		return o, true
	}
	read := func(st stream, d *drawer, r *rand.Rand) op {
		alg, k := d.next()
		o := op{Class: st.Class, Alg: alg, K: k}
		if st.Class == opScore {
			o.Pairs = r.Intn(pairListCount)
		}
		return o
	}

	// Warm-up: every distinct tuple once, then two batches per ingest stream.
	seen := map[string]bool{}
	for _, st := range w.readStreams() {
		for i, t := range st.tuples() {
			o := op{Class: st.Class, Alg: t.Alg, K: t.K, Pairs: i % pairListCount}
			key := fmt.Sprint(o.Class, o.Alg, o.K)
			if !seen[key] {
				seen[key] = true
				s.Warmup = append(s.Warmup, o)
			}
		}
	}
	for _, lane := range w.Lanes {
		for _, st := range lane {
			if st.Class == opIngest {
				for i := 0; i < 2; i++ {
					if o, ok := ingest(st.Batch); ok {
						s.Warmup = append(s.Warmup, o)
					}
				}
			}
		}
	}

	// Open loop: fixed inter-arrival per stream, merged per lane in due
	// order. Lanes and streams start a little apart so that the first
	// requests of a run do not all fall due at the same instant.
	open, _ := phases(seconds)
	for li, lane := range w.Lanes {
		var ops []op
		for si, st := range lane {
			period := time.Duration(float64(time.Second) / st.Rate)
			offset := time.Duration(li)*7*time.Millisecond + time.Duration(si)*period/2
			d, r := newDrawer(rng(int64(10+li*4+si)), st.Mix), rng(int64(30+li*4+si))
			for due := offset; due < open; due += period {
				var o op
				if st.Class == opIngest {
					var ok bool
					if o, ok = ingest(st.Batch); !ok {
						break
					}
				} else {
					o = read(st, d, r)
				}
				o.Due = due
				ops = append(ops, o)
			}
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
		s.Open[li] = ops
	}

	// Closed loop: each sender repeats its own shuffle of one programme in
	// which every read stream appears in proportion to its rate.
	streams := w.readStreams()
	var total float64
	for _, st := range streams {
		total += st.Rate
	}
	for li := range s.Closed {
		var prog []op
		for si, st := range streams {
			n := int(float64(closedCycle)*st.Rate/total + 0.5)
			d, r := newDrawer(rng(int64(50+li*8+si)), st.Mix), rng(int64(70+li*8+si))
			for i := 0; i < n; i++ {
				prog = append(prog, read(st, d, r))
			}
		}
		r := rng(int64(90 + li))
		r.Shuffle(len(prog), func(i, j int) { prog[i], prog[j] = prog[j], prog[i] })
		s.Closed[li] = prog
	}

	return s
}
