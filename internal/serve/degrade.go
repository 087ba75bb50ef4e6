package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// latentProxy is the one proxy policy: it maps each latent-family algorithm
// to the fused local metric that answers for it under degradation. The
// proxies run zero-allocation wedge sweeps (DESIGN.md §7) — orders of
// magnitude cheaper than an eigensolve or ALS on a cold snapshot — and
// remain fully deterministic, so a degraded response is exactly the proxy
// algorithm's own output. The table is static, so the proxy is a function
// of the requested name alone: every degraded shard of a cluster serves the
// same one, which is the name the router re-gathers under (DESIGN.md §12).
// The proxies never degrade themselves. Each row holds its
// serve/degrade_routed{from,to} counter.
var latentProxy = map[string]proxyRoute{
	"Katz":   proxyTo("Katz", "AA"),
	"KatzSC": proxyTo("KatzSC", "RA"),
	"Rescal": proxyTo("Rescal", "CN"),
}

// proxyRoute is one row of the proxy table.
type proxyRoute struct {
	proxy  string
	routed *obs.Counter
}

func proxyTo(from, to string) proxyRoute {
	return proxyRoute{to, obs.GetCounter(`serve/degrade_routed{from="` + from + `",to="` + to + `"}`)}
}

// degrader is the graceful-degradation controller and the one place a
// request's served algorithm is chosen. Workers feed it one observation per
// executed sweep (latency plus the queue depth at finish); it maintains a
// rolling latency window and trips when the window's p95 or the queue depth
// crosses its threshold. Recovery is hysteretic: the latent path
// re-enables only after RecoverAfter consecutive healthy observations, so a
// single fast request under sustained pressure cannot flap the route.
//
// The degraded flag is read lock-free on every request (route); only the
// observation path takes the mutex.
type degrader struct {
	p95Limit   time.Duration
	queueLimit int
	recover    int
	disabled   bool

	state atomic.Bool

	mu      sync.Mutex
	ring    []time.Duration
	next    int
	filled  int
	healthy int
	scratch []time.Duration
}

func newDegrader(cfg DegradeConfig, queueCap int) *degrader {
	if cfg.P95 <= 0 {
		cfg.P95 = 250 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = queueCap * 3 / 4
		if cfg.QueueDepth < 1 {
			cfg.QueueDepth = 1
		}
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 16
	}
	return &degrader{
		p95Limit:   cfg.P95,
		queueLimit: cfg.QueueDepth,
		recover:    cfg.RecoverAfter,
		disabled:   cfg.Disabled,
		ring:       make([]time.Duration, cfg.Window),
		scratch:    make([]time.Duration, 0, cfg.Window),
	}
}

// degraded reports whether latent-family requests currently route to their
// local-metric proxies.
func (d *degrader) degraded() bool {
	return !d.disabled && d.state.Load()
}

// routing is the algorithm that actually serves a request: the requested
// one, or its proxy under degradation.
type routing struct {
	alg      predict.Algorithm
	served   string
	degraded bool
}

// route picks the algorithm serving a request for name, which submit
// already resolved to alg. Under degradation a latent-family name routes to
// its proxy, resolved here; a proxy that fails to resolve leaves the
// request on alg.
func (d *degrader) route(name string, alg predict.Algorithm, resolve func(string) (predict.Algorithm, error)) routing {
	if d.degraded() {
		if row, ok := latentProxy[name]; ok {
			if a, err := resolve(row.proxy); err == nil {
				row.routed.Inc()
				return routing{alg: a, served: row.proxy, degraded: true}
			}
		}
	}
	return routing{alg: alg, served: name}
}

// observe records one executed sweep and updates the route state.
func (d *degrader) observe(lat time.Duration, queueLen int) {
	if d.disabled {
		return
	}
	d.mu.Lock()
	d.ring[d.next] = lat
	d.next = (d.next + 1) % len(d.ring)
	if d.filled < len(d.ring) {
		d.filled++
	}
	over := d.p95() > d.p95Limit || queueLen > d.queueLimit
	switch {
	case over:
		d.healthy = 0
		if !d.state.Load() {
			d.state.Store(true)
			obs.GetCounter("serve/degrade_transitions").Inc()
		}
	case d.state.Load():
		d.healthy++
		if d.healthy >= d.recover {
			d.healthy = 0
			d.state.Store(false)
		}
	}
	d.mu.Unlock()
}

// p95 computes the 95th percentile of the filled window. Callers hold d.mu.
func (d *degrader) p95() time.Duration {
	if d.filled == 0 {
		return 0
	}
	d.scratch = append(d.scratch[:0], d.ring[:d.filled]...)
	sort.Slice(d.scratch, func(i, j int) bool { return d.scratch[i] < d.scratch[j] })
	idx := (d.filled*95 + 99) / 100
	if idx > d.filled {
		idx = d.filled
	}
	return d.scratch[idx-1]
}
