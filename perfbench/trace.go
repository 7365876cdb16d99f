package main

import (
	"strings"
	"time"

	"ucat/internal/obs"
	"ucat/internal/pager"
)

// Tracing for the per-layer run. The benchmark records spans in its own
// code around its calls into each layer, in the same obs.Recorder that the
// program's existing spans (pdrtree.*, invidx.*) and counters (pdr.nodes,
// inv.probes, btree.nodes, …) land in through obs.InstrumentView. Pager
// time is taken by timedView, which wraps the instrumented view and opens a
// pager.fetch span around every Fetch. A span's self time is its duration
// minus its children's, so the self times of one query's spans add up to
// the query's root span exactly.

// timedView opens a pager.fetch span around each page fetch. It carries the
// recorder, so the index code finds it through obs.RecorderOf exactly as it
// finds the instrumented view's.
type timedView struct {
	inner pager.View
	rec   *obs.Recorder
}

func newTimedView(v pager.View, rec *obs.Recorder) *timedView {
	return &timedView{inner: obs.InstrumentView(v, rec), rec: rec}
}

// Fetch implements pager.View.
func (tv *timedView) Fetch(pid pager.PageID) (*pager.Page, error) {
	sp := tv.rec.StartSpan("pager.fetch")
	defer sp.End()
	return tv.inner.Fetch(pid)
}

// Recorder lets obs.RecorderOf find the bound recorder.
func (tv *timedView) Recorder() *obs.Recorder { return tv.rec }

// Stats passes the wrapped view's pool counters through.
func (tv *timedView) Stats() pager.Stats {
	if st, ok := tv.inner.(interface{ Stats() pager.Stats }); ok {
		return st.Stats()
	}
	return pager.Stats{}
}

// layerTally accumulates self times and counters over many traced queries.
type layerTally struct {
	self     map[string]time.Duration // by layer: the span name up to its first dot
	spans    map[string]int64         // span count by full span name
	selfBy   map[string]time.Duration // self time by full span name
	counters map[string]int64
	fetches  uint64
	reads    uint64
	hits     uint64
	roots    time.Duration // total duration of all root spans
	queries  int64
}

func newLayerTally() *layerTally {
	return &layerTally{
		self:     map[string]time.Duration{},
		spans:    map[string]int64{},
		selfBy:   map[string]time.Duration{},
		counters: map[string]int64{},
	}
}

// counterNames are the program's span counters the benchmark reads.
var counterNames = []string{
	"pdr.nodes", "pdr.pruned", "pdr.descended",
	"inv.advances", "inv.probes", "btree.nodes", "pager.evictions",
}

// add folds one query's recorded spans into the tally and resets rec.
func (t *layerTally) add(rec *obs.Recorder) {
	for _, root := range rec.Roots() {
		t.roots += root.Duration()
		t.walk(root)
	}
	t.queries++
	rec.Reset()
}

func (t *layerTally) walk(s *obs.Span) {
	self := s.Duration()
	for _, c := range s.Children {
		self -= c.Duration()
		t.walk(c)
	}
	layer := s.Name
	if i := strings.IndexByte(layer, '.'); i >= 0 {
		layer = layer[:i]
	}
	t.self[layer] += self
	t.selfBy[s.Name] += self
	t.spans[s.Name]++
	t.fetches += s.Fetches
	t.reads += s.Reads
	t.hits += s.Hits
	for _, name := range counterNames {
		t.counters[name] += s.Counter(name)
	}
}

// merge adds o into t.
func (t *layerTally) merge(o *layerTally) {
	for k, v := range o.self {
		t.self[k] += v
	}
	for k, v := range o.selfBy {
		t.selfBy[k] += v
	}
	for k, v := range o.spans {
		t.spans[k] += v
	}
	for k, v := range o.counters {
		t.counters[k] += v
	}
	t.fetches += o.fetches
	t.reads += o.reads
	t.hits += o.hits
	t.roots += o.roots
	t.queries += o.queries
}

// selfTotal is the sum of every layer's self time; it equals roots.
func (t *layerTally) selfTotal() time.Duration {
	var sum time.Duration
	for _, d := range t.self {
		sum += d
	}
	return sum
}

// meanSelf is the mean self time, in µs, of the spans with this name.
func (t *layerTally) meanSelfUS(name string) float64 {
	n := t.spans[name]
	if n == 0 {
		return 0
	}
	return float64(t.selfBy[name].Nanoseconds()) / 1e3 / float64(n)
}

func (t *layerTally) perQuery(v int64) float64 {
	if t.queries == 0 {
		return 0
	}
	return float64(v) / float64(t.queries)
}

// pagerMetrics writes the pager-layer metrics of the tally into m.
func (t *layerTally) pagerMetrics(m map[string]float64) {
	m["pager.fetches_per_query"] = t.perQuery(int64(t.fetches))
	if n := t.spans["pager.fetch"]; n > 0 {
		m["pager.fetch_ns"] = float64(t.selfBy["pager.fetch"].Nanoseconds()) / float64(n)
	}
	if t.reads+t.hits > 0 {
		m["pager.hit_rate"] = float64(t.hits) / float64(t.reads+t.hits)
	}
	m["pager.evictions_per_query"] = t.perQuery(t.counters["pager.evictions"])
}

// pdrMetrics writes the PDR-tree query metrics of the tally into m.
func (t *layerTally) pdrMetrics(m map[string]float64) {
	m["pdrtree.petq_us"] = t.meanSelfUS("pdrtree.petq")
	m["pdrtree.topk_us"] = t.meanSelfUS("pdrtree.topk")
	m["pdrtree.nodes_per_query"] = t.perQuery(t.counters["pdr.nodes"])
	if d := t.counters["pdr.pruned"] + t.counters["pdr.descended"]; d > 0 {
		m["pdrtree.pruned_share"] = float64(t.counters["pdr.pruned"]) / float64(d)
	}
}
