package serve

import (
	"sync"

	"linkpred/internal/graph"
)

// IDMap is the external↔dense node-ID map together with the ingest
// admission rule that grows it. Every tier that replays the event stream —
// a Server, and a cluster router mirroring it for prequential evaluation —
// admits through the same map type, so first-seen dense IDs agree across
// the cluster by construction. Queries read it while ingest extends it; it
// owns its lock.
type IDMap struct {
	mu    sync.RWMutex
	dense map[int64]graph.NodeID
	ext   []int64
}

// NewIDMap returns a map seeded with ext (dense → external) and its inverse
// dense; a nil dense is derived from ext. NewIDMap(nil, nil) is empty. The
// map takes ownership of both.
func NewIDMap(dense map[int64]graph.NodeID, ext []int64) *IDMap {
	if dense == nil {
		dense = make(map[int64]graph.NodeID, len(ext))
		for d, id := range ext {
			dense[id] = graph.NodeID(d)
		}
	}
	return &IDMap{dense: dense, ext: ext}
}

// Admit applies the per-event ingest rule: an event with a negative or
// repeated endpoint is refused (and assigns nothing); otherwise each
// endpoint gets the next dense ID on first sight, u before v. An admitted
// pair is dense, non-negative and distinct, so graph.Trace.Append accepts
// it. Callers serialize Admit (the ingest lock); readers need not.
func (m *IDMap) Admit(ev Event) (u, v graph.NodeID, ok bool) {
	if ev.U < 0 || ev.V < 0 || ev.U == ev.V {
		return 0, 0, false
	}
	return m.assign(ev.U), m.assign(ev.V), true
}

func (m *IDMap) assign(id int64) graph.NodeID {
	if d, ok := m.Lookup(id); ok {
		return d
	}
	m.mu.Lock()
	d := graph.NodeID(len(m.ext))
	m.dense[id] = d
	m.ext = append(m.ext, id)
	m.mu.Unlock()
	return d
}

// Lookup resolves an external ID without assigning.
func (m *IDMap) Lookup(id int64) (graph.NodeID, bool) {
	m.mu.RLock()
	d, ok := m.dense[id]
	m.mu.RUnlock()
	return d, ok
}

// Externals returns the dense → external table: Externals()[d] is the ID
// dense d was assigned for. The table is append-only, so the returned slice
// is an immutable as-of-now view.
func (m *IDMap) Externals() []int64 {
	m.mu.RLock()
	ext := m.ext
	m.mu.RUnlock()
	return ext
}
