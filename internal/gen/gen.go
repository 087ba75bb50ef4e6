// Package gen synthesizes dynamic online-social-network traces that stand in
// for the proprietary Facebook, Renren and YouTube datasets of the paper
// (see DESIGN.md §1). The generator reproduces the structural and temporal
// properties the paper's results depend on:
//
//   - exponential daily growth in nodes and edges (Fig. 1);
//   - a tunable mix of triadic closure, preferential attachment and random
//     edges, controlling the 2-hop edge ratio λ₂ and its trend over time;
//   - friendship mode (positive degree assortativity, high clustering) vs
//     subscription mode (supernodes, negative assortativity);
//   - a node-activity lifecycle in which recently active nodes initiate a
//     disproportionate share of new edges, producing the idle-time and
//     common-neighbor-gap separations of Figs. 13-15.
//
// Every generator is fully deterministic given Config.Seed.
package gen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"linkpred/internal/graph"
	"linkpred/internal/obs"
)

// Config parameterizes the dynamic-network model. The zero value is not
// useful; start from a preset (Facebook, Renren, YouTube) or fill every
// field.
type Config struct {
	// Name labels the resulting trace.
	Name string
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// Days is the trace duration in days.
	Days int
	// InitialNodes and InitialEdges form the seed community generated
	// before day zero.
	InitialNodes int
	InitialEdges int
	// FinalNodes and FinalEdges are the totals at the end of the trace;
	// both nodes and edges arrive on exponential daily schedules
	// interpolating from the initial to the final counts.
	FinalNodes int
	FinalEdges int

	// PTriad, PPref are the probabilities that a new edge closes a 2-hop
	// pair (triadic closure) or attaches degree-proportionally; the
	// remainder of the probability mass creates uniform random edges.
	PTriad float64
	PPref  float64
	// TriadSlope linearly scales PTriad over the trace: at day d the
	// effective closure probability is PTriad * (1 + TriadSlope * d/Days),
	// clamped to [0, 0.98]. Negative values emulate the Facebook regional
	// subsampling effect (λ₂ decreasing over time); positive values emulate
	// the densification of Renren and YouTube.
	TriadSlope float64

	// PActiveReuse is the probability that a new edge is initiated by a
	// node from the recent-activity pool rather than a fresh draw. Higher
	// values yield burstier per-node edge creation.
	PActiveReuse float64
	// ActiveWindowDays bounds the recent-activity pool.
	ActiveWindowDays int

	// LifetimeDays is the mean active lifetime of a node (exponentially
	// distributed per node, refreshed a little by engagement). After its
	// lifetime a node churns: it stops initiating edges and is rarely
	// chosen as a partner. Churn is what strands unclosed, structurally
	// attractive node pairs in dormant regions — the §4.4 bias of static
	// similarity metrics (Fig. 8). Zero disables churn.
	LifetimeDays int

	// SupernodeCount designates the first SupernodeCount arrived nodes as
	// supernodes (subscription hubs). Zero disables subscription behaviour.
	SupernodeCount int
	// PSupernode is the probability that a new edge involves a supernode
	// endpoint (YouTube: ~0.4 of new edges touch the top 0.1% of nodes).
	PSupernode float64
}

// Validate reports configuration errors before generation starts.
func (c *Config) Validate() error {
	switch {
	case c.Days <= 0:
		return fmt.Errorf("gen: Days = %d, need > 0", c.Days)
	case c.InitialNodes < 2:
		return fmt.Errorf("gen: InitialNodes = %d, need >= 2", c.InitialNodes)
	case c.FinalNodes < c.InitialNodes:
		return fmt.Errorf("gen: FinalNodes %d < InitialNodes %d", c.FinalNodes, c.InitialNodes)
	case c.FinalEdges < c.InitialEdges:
		return fmt.Errorf("gen: FinalEdges %d < InitialEdges %d", c.FinalEdges, c.InitialEdges)
	case c.PTriad < 0 || c.PPref < 0 || c.PTriad+c.PPref > 1:
		return fmt.Errorf("gen: mechanism mix PTriad=%v PPref=%v invalid", c.PTriad, c.PPref)
	case c.PActiveReuse < 0 || c.PActiveReuse > 1:
		return fmt.Errorf("gen: PActiveReuse = %v out of [0,1]", c.PActiveReuse)
	case c.SupernodeCount > c.InitialNodes:
		return fmt.Errorf("gen: SupernodeCount %d exceeds InitialNodes %d", c.SupernodeCount, c.InitialNodes)
	}
	maxInit := int64(c.InitialNodes) * int64(c.InitialNodes-1) / 2
	if int64(c.InitialEdges) > maxInit {
		return fmt.Errorf("gen: InitialEdges %d exceeds complete graph on %d nodes", c.InitialEdges, c.InitialNodes)
	}
	maxFinal := int64(c.FinalNodes) * int64(c.FinalNodes-1) / 2
	if int64(c.FinalEdges) > maxFinal/2 {
		return fmt.Errorf("gen: FinalEdges %d too dense for %d nodes", c.FinalEdges, c.FinalNodes)
	}
	return nil
}

// Scaled returns a copy of the config with node and edge counts multiplied
// by f (minimum sizes preserved). Tests use small scales; benchmarks and the
// experiment CLI use 1.0.
func (c Config) Scaled(f float64) Config {
	scale := func(v int, lo int) int {
		s := int(math.Round(float64(v) * f))
		if s < lo {
			s = lo
		}
		return s
	}
	c.InitialNodes = scale(c.InitialNodes, 16)
	c.InitialEdges = scale(c.InitialEdges, 24)
	c.FinalNodes = scale(c.FinalNodes, c.InitialNodes)
	c.FinalEdges = scale(c.FinalEdges, c.InitialEdges)
	if c.SupernodeCount > 0 {
		c.SupernodeCount = scale(c.SupernodeCount, 2)
		if c.SupernodeCount > c.InitialNodes {
			c.SupernodeCount = c.InitialNodes
		}
	}
	return c
}

// generator holds the mutable growth state.
type generator struct {
	cfg Config
	rng *rand.Rand

	adj       [][]graph.NodeID // unsorted adjacency
	edgeSet   map[uint64]struct{}
	endpoints []graph.NodeID // flat endpoint list for degree-proportional draws
	arrival   []int64
	edges     []graph.Edge

	// recent is a FIFO of recent edge initiators with their times.
	recent     []activity
	supernodes []graph.NodeID

	// lastEdge[v] is the time of v's most recent edge (MinInt64 if none);
	// activeUntil[v] is the end of v's engagement lifetime;
	// stamp/stampGen implement O(degree) common-neighbor counting.
	lastEdge    []int64
	activeUntil []int64
	stamp       []int64
	stampGen    int64
}

type activity struct {
	node graph.NodeID
	time int64
}

func pairKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Generate runs the model and returns a validated trace.
func Generate(cfg Config) (*graph.Trace, error) {
	return GenerateCtx(context.Background(), cfg)
}

// GenerateCtx is Generate with an obs span parented by ctx, so trace
// synthesis shows up as the "generation" stage of a run's timing tree.
func GenerateCtx(ctx context.Context, cfg Config) (*graph.Trace, error) {
	_, sp := obs.StartSpan(ctx, "gen/"+cfg.Name)
	defer sp.End()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		edgeSet: make(map[uint64]struct{}, cfg.FinalEdges),
	}
	g.seedCommunity()
	g.grow()
	tr := &graph.Trace{Name: cfg.Name, Arrival: g.arrival, Edges: g.edges}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated invalid trace: %w", err)
	}
	obs.GetCounter("gen/nodes_generated").Add(int64(tr.NumNodes()))
	obs.GetCounter("gen/edges_generated").Add(int64(tr.NumEdges()))
	return tr, nil
}

// MustGenerate is Generate that panics on error; presets are known valid, so
// examples and benchmarks use it freely.
func MustGenerate(cfg Config) *graph.Trace {
	return MustGenerateCtx(context.Background(), cfg)
}

// MustGenerateCtx is GenerateCtx that panics on error.
func MustGenerateCtx(ctx context.Context, cfg Config) *graph.Trace {
	tr, err := GenerateCtx(ctx, cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

func (g *generator) addNode(tm int64) graph.NodeID {
	id := graph.NodeID(len(g.arrival))
	g.arrival = append(g.arrival, tm)
	g.adj = append(g.adj, nil)
	g.lastEdge = append(g.lastEdge, math.MinInt64)
	g.activeUntil = append(g.activeUntil, g.lifetimeFrom(tm))
	g.stamp = append(g.stamp, 0)
	return id
}

// lifetimeFrom draws an exponentially distributed active lifetime starting
// at tm. With churn disabled every node stays active forever.
func (g *generator) lifetimeFrom(tm int64) int64 {
	if g.cfg.LifetimeDays <= 0 {
		return math.MaxInt64
	}
	d := g.rng.ExpFloat64() * float64(g.cfg.LifetimeDays) * float64(graph.Day)
	return tm + int64(d)
}

// isActive reports whether v is still within its engagement lifetime at tm.
// Supernodes never churn ("super nodes remain super active", §4.2).
func (g *generator) isActive(v graph.NodeID, tm int64) bool {
	return g.activeUntil[v] >= tm || int(v) < len(g.supernodes)
}

func (g *generator) addEdge(u, v graph.NodeID, tm int64) bool {
	if u == v {
		return false
	}
	key := pairKey(u, v)
	if _, dup := g.edgeSet[key]; dup {
		return false
	}
	g.edgeSet[key] = struct{}{}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.endpoints = append(g.endpoints, u, v)
	g.edges = append(g.edges, graph.Edge{U: u, V: v, Time: tm})
	g.lastEdge[u] = tm
	g.lastEdge[v] = tm
	// Engagement mildly refreshes the lifetime, creating bursty sessions
	// rather than one fixed window.
	if g.cfg.LifetimeDays > 0 {
		ext := tm + int64(g.rng.ExpFloat64()*float64(g.cfg.LifetimeDays)*float64(graph.Day)/4)
		if ext > g.activeUntil[u] && g.activeUntil[u] >= tm {
			g.activeUntil[u] = ext
		}
		if ext > g.activeUntil[v] && g.activeUntil[v] >= tm {
			g.activeUntil[v] = ext
		}
	}
	g.noteActive(u, tm)
	g.noteActive(v, tm)
	return true
}

func (g *generator) noteActive(v graph.NodeID, tm int64) {
	g.recent = append(g.recent, activity{node: v, time: tm})
	window := int64(g.cfg.ActiveWindowDays) * graph.Day
	if window <= 0 {
		window = 7 * graph.Day
	}
	for len(g.recent) > 0 && g.recent[0].time < tm-window {
		g.recent = g.recent[1:]
	}
	// Bound memory: the pool never needs more entries than a few times the
	// largest daily edge budget.
	if limit := 4 * g.cfg.FinalEdges / max(g.cfg.Days, 1); limit > 64 && len(g.recent) > limit {
		g.recent = g.recent[len(g.recent)-limit:]
	}
}

// seedCommunity builds the pre-trace network: InitialNodes nodes joined at
// time zero (spread over the 10 "days" before day 0 for idle-time realism)
// connected by a small-world style base of InitialEdges edges.
func (g *generator) seedCommunity() {
	n := g.cfg.InitialNodes
	preSpan := int64(10) * graph.Day
	for i := 0; i < n; i++ {
		g.addNode(-preSpan)
	}
	if g.cfg.SupernodeCount > 0 {
		g.supernodes = make([]graph.NodeID, g.cfg.SupernodeCount)
		for i := range g.supernodes {
			g.supernodes[i] = graph.NodeID(i)
		}
	}
	// Ring base guarantees connectivity of the seed.
	tm := -preSpan
	step := preSpan / int64(max(g.cfg.InitialEdges, 1))
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i++ {
		g.addEdge(graph.NodeID(i), graph.NodeID((i+1)%n), tm)
		tm += step
	}
	for len(g.edges) < g.cfg.InitialEdges {
		u := graph.NodeID(g.rng.Intn(n))
		var v graph.NodeID
		if len(g.supernodes) > 0 && g.rng.Float64() < g.cfg.PSupernode {
			v = g.supernodes[g.rng.Intn(len(g.supernodes))]
		} else if g.rng.Float64() < g.cfg.PTriad {
			v = g.twoHop(u)
		} else {
			v = graph.NodeID(g.rng.Intn(n))
		}
		if v < 0 {
			v = graph.NodeID(g.rng.Intn(n))
		}
		if g.addEdge(u, v, tm) {
			tm += step
		}
	}
	// Normalize: seed edges all timestamped before 0; clamp any overshoot.
	for i := range g.edges {
		if g.edges[i].Time > 0 {
			g.edges[i].Time = 0
		}
	}
}

// dailyBudget returns per-day counts interpolating exponentially from start
// to end totals across cfg.Days days.
func dailyBudget(start, end, days int) []int {
	out := make([]int, days)
	if end <= start {
		return out
	}
	r := math.Log(float64(end)/float64(start)) / float64(days)
	prev := float64(start)
	total := 0
	for d := 0; d < days; d++ {
		next := float64(start) * math.Exp(r*float64(d+1))
		out[d] = int(math.Round(next - prev))
		prev = next
		total += out[d]
	}
	// Fix rounding drift on the final day.
	out[days-1] += (end - start) - total
	if out[days-1] < 0 {
		out[days-1] = 0
	}
	return out
}

func (g *generator) grow() {
	days := g.cfg.Days
	nodeBudget := dailyBudget(g.cfg.InitialNodes, g.cfg.FinalNodes, days)
	edgeBudget := dailyBudget(g.cfg.InitialEdges, g.cfg.FinalEdges, days)
	for d := 0; d < days; d++ {
		dayStart := int64(d) * graph.Day
		nNew, eNew := nodeBudget[d], edgeBudget[d]
		// Newcomer attachment consumes one edge each, so draw those from
		// the day's edge budget to keep total edge counts on target.
		eNew -= nNew
		if eNew < 0 {
			eNew = 0
		}
		// Interleave node arrivals and edge events uniformly through the day.
		events := nNew + eNew
		if events == 0 {
			continue
		}
		times := make([]int64, events)
		for i := range times {
			times[i] = dayStart + int64(g.rng.Int63n(graph.Day))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		// Node arrivals take the earliest nNew slots spread across the day:
		// interleave deterministically by ratio.
		ei := 0
		ni := 0
		for i := 0; i < events; i++ {
			takeNode := ni < nNew && (eNew == 0 || ni*eNew <= ei*nNew)
			if takeNode {
				v := g.addNode(times[i])
				g.attachNewcomer(v, times[i], d)
				ni++
			} else {
				g.createEdge(times[i], d)
				ei++
			}
		}
	}
	sort.SliceStable(g.edges, func(i, j int) bool { return g.edges[i].Time < g.edges[j].Time })
}

// attachNewcomer connects a newly arrived node. In subscription mode
// newcomers predominantly follow supernodes; in friendship mode they attach
// preferentially and then immediately participate in the activity pool.
func (g *generator) attachNewcomer(v graph.NodeID, tm int64, day int) {
	var u graph.NodeID = -1
	if len(g.supernodes) > 0 && g.rng.Float64() < g.cfg.PSupernode {
		u = g.supernodes[g.rng.Intn(len(g.supernodes))]
	} else if len(g.endpoints) > 0 {
		u = g.endpoints[g.rng.Intn(len(g.endpoints))]
	}
	if u < 0 || u == v {
		u = graph.NodeID(g.rng.Intn(len(g.arrival)))
	}
	if !g.addEdge(v, u, tm) {
		// Rare collision; fall back to a uniform partner.
		for tries := 0; tries < 8; tries++ {
			w := graph.NodeID(g.rng.Intn(len(g.arrival)))
			if g.addEdge(v, w, tm) {
				return
			}
		}
	}
}

// effectivePTriad applies the TriadSlope trend.
func (g *generator) effectivePTriad(day int) float64 {
	p := g.cfg.PTriad * (1 + g.cfg.TriadSlope*float64(day)/float64(g.cfg.Days))
	return math.Max(0, math.Min(0.98, p))
}

// createEdge produces one link-creation event at time tm.
func (g *generator) createEdge(tm int64, day int) {
	for tries := 0; tries < 24; tries++ {
		u := g.pickInitiator(tm)
		v := g.pickTarget(u, tm, day)
		if v >= 0 && g.addEdge(u, v, tm) {
			return
		}
	}
	// Dense corner: fall back to exhaustive-ish random pairs so the edge
	// budget is met even late in small graphs.
	n := len(g.arrival)
	for tries := 0; tries < 200; tries++ {
		u := graph.NodeID(g.rng.Intn(n))
		v := graph.NodeID(g.rng.Intn(n))
		if g.addEdge(u, v, tm) {
			return
		}
	}
}

// pickInitiator draws the node that initiates a new edge, biased toward
// recently active nodes (the paper's node-activeness observation, §6.1).
// In friendship mode the fallback draw is uniform: link creation requires
// "joint efforts from both users" (§4.2), so degree alone must not make a
// node an initiator — this is what makes Preferential Attachment a poor
// predictor on Facebook/Renren-style networks, as the paper observes. In
// subscription mode (supernodes configured) the fallback is degree-biased,
// reflecting that popular channels keep attracting and creating links.
func (g *generator) pickInitiator(tm int64) graph.NodeID {
	if len(g.recent) > 0 && g.rng.Float64() < g.cfg.PActiveReuse {
		return g.recent[g.rng.Intn(len(g.recent))].node
	}
	if len(g.supernodes) > 0 {
		if g.rng.Float64() < g.cfg.PSupernode {
			return g.supernodes[g.rng.Intn(len(g.supernodes))]
		}
		if len(g.endpoints) > 0 && g.rng.Float64() < 0.5 {
			return g.endpoints[g.rng.Intn(len(g.endpoints))]
		}
	}
	return g.pickNode(tm)
}

// pickNode draws a node with a bias toward recent arrivals and active
// nodes: user engagement decays with account age (churn), so older regions
// of the graph stop growing. This aging leaves long-standing unclosed 2-hop
// pairs behind — exactly the dormant, structurally attractive pairs that
// static similarity metrics over-predict (Fig. 8).
func (g *generator) pickNode(tm int64) graph.NodeID {
	n := len(g.arrival)
	for tries := 0; tries < 6; tries++ {
		var v graph.NodeID
		if young := n / 4; young > 0 && g.rng.Float64() < 0.5 {
			v = graph.NodeID(n - 1 - g.rng.Intn(young))
		} else {
			v = graph.NodeID(g.rng.Intn(n))
		}
		if g.isActive(v, tm) {
			return v
		}
	}
	return graph.NodeID(g.rng.Intn(n))
}

// pickTarget draws the other endpoint according to the mechanism mix.
// Returns -1 when the chosen mechanism has no valid candidate. Targets are
// also biased toward recently active nodes: both endpoints of real new
// edges tend to be recently active (§6.1, Figs. 13-14), which is what the
// static similarity metrics cannot see (Fig. 8).
func (g *generator) pickTarget(u graph.NodeID, tm int64, day int) graph.NodeID {
	if len(g.supernodes) > 0 && g.rng.Float64() < g.cfg.PSupernode {
		return g.supernodes[g.rng.Intn(len(g.supernodes))]
	}
	roll := g.rng.Float64()
	switch {
	case roll < g.effectivePTriad(day):
		return g.twoHop(u)
	case roll < g.effectivePTriad(day)+g.cfg.PPref:
		if len(g.endpoints) == 0 {
			return -1
		}
		v := g.endpoints[g.rng.Intn(len(g.endpoints))]
		// Friendship requires consent from both sides: two already-popular
		// users rarely add each other, so hub-hub preferential pairs are
		// resampled once toward an ordinary partner (§4.2's PA discussion).
		if len(g.supernodes) == 0 && len(g.adj[u]) > 24 && len(g.adj[v]) > 24 {
			return g.pickNode(g.lastEdge[u])
		}
		return v
	default:
		// Random-partner edges still prefer recently active partners half
		// the time: link creation requires attention from both sides.
		if len(g.recent) > 0 && g.rng.Float64() < 0.5 {
			return g.recent[g.rng.Intn(len(g.recent))].node
		}
		return g.pickNode(tm)
	}
}

// twoHop samples candidate 2-hop neighbors of u (neighbor of a neighbor)
// and closes the triad with the best of them, preferring candidates with
// many common neighbors and recent activity. Sampling via a random
// neighbor's neighbor already weights candidates by path count; the
// best-of-candidates selection makes the closure probability grow
// superlinearly with shared neighborhood size — the empirical property
// (triads with many mutual friends close first, recency matters) that
// gives the common-neighbor metric family its predictive power and that
// Figs. 8 and 13-15 measure.
func (g *generator) twoHop(u graph.NodeID) graph.NodeID {
	if len(g.adj[u]) == 0 {
		return -1
	}
	best := graph.NodeID(-1)
	bestScore := -1.0
	for tries := 0; tries < 16; tries++ {
		w := g.adj[u][g.rng.Intn(len(g.adj[u]))]
		if len(g.adj[w]) == 0 {
			continue
		}
		v := g.adj[w][g.rng.Intn(len(g.adj[w]))]
		if v == u {
			continue
		}
		if _, dup := g.edgeSet[pairKey(u, v)]; dup {
			continue
		}
		// Shared-friend count drives closure, but a busy candidate's
		// attention is divided across its whole neighborhood — the
		// resource-allocation effect. The damping keeps hub-hub closures
		// rare, so degree product alone (PA) stays a poor predictor on
		// friendship networks, matching §4.2.
		score := float64(g.commonCount(u, v)) / math.Pow(1+float64(len(g.adj[v])), 0.75)
		if g.lastEdge[v] >= g.lastEdge[u]-int64(g.cfg.ActiveWindowDays)*graph.Day {
			score += 1.5
		}
		// Mild noise keeps the choice among near-ties stochastic, so the
		// trace stays hard to predict pair-exactly (Table 4's low absolute
		// accuracy).
		score += 0.6 * g.rng.Float64()
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// commonCount counts common neighbors between u and v on the (unsorted)
// working adjacency, using a stamp array reused across calls.
func (g *generator) commonCount(u, v graph.NodeID) int {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	g.stampGen++
	for _, w := range g.adj[u] {
		g.stamp[w] = g.stampGen
	}
	n := 0
	for _, w := range g.adj[v] {
		if g.stamp[w] == g.stampGen {
			n++
		}
	}
	return n
}
