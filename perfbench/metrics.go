package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef is one reported metric: its name, its unit, and whether it is
// an end-to-end metric (printed by an untraced run) or a per-layer metric
// (printed by a traced run). BENCHMARK.json lists the same names and units;
// the self-test keeps the two in step.
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

// strategies names the inverted-index strategies the traced run measures.
var strategies = []string{"bruteforce", "hpf", "rowpruning", "colpruning", "nra", "auto"}

func allMetrics() []metricDef {
	e := func(name, unit string) metricDef { return metricDef{name, unit, true} }
	l := func(name, unit string) metricDef { return metricDef{name, unit, false} }
	defs := []metricDef{
		e("setup_s", "s"),
		e("build_s", "s"),
		e("query_qps", "1/s"),
		e("query_ms_p50", "ms"),
		e("query_ms_p90", "ms"),
		e("ios_per_query", "io/q"),
		e("store_mb", "MB"),
		e("peak_heap_mb", "MB"),

		l("ingest_ops_s", "1/s"),
		l("ack_ms_p50", "ms"),
		l("ack_ms_p90", "ms"),
		l("checkpoint_s", "s"),
		l("recover_s", "s"),
		l("uda.eqprob_ns", "ns"),
		l("uda.decode_ns", "ns"),
		l("uda.alloc_bytes_per_query", "B/q"),
		l("pager.fetches_per_query", "count/q"),
		l("pager.fetch_ns", "ns"),
		l("pager.hit_rate", "ratio"),
		l("pager.evictions_per_query", "count/q"),
		l("dcache.hit_rate", "ratio"),
		l("btree.node_visits_per_query", "count/q"),
	}
	for _, s := range strategies {
		defs = append(defs,
			l("invidx.petq_us."+s, "us"),
			l("invidx.petq_allocs."+s, "allocs/q"),
			l("invidx.petq_ios."+s, "io/q"))
	}
	defs = append(defs,
		l("invidx.list_advances_per_query", "count/q"),
		l("invidx.probes_per_query", "count/q"),
		l("invidx.alloc_bytes_per_query", "B/q"),
		l("tuplestore.get_us", "us"),
		l("pdrtree.insert_us", "us"),
		l("pdrtree.insert_allocs", "allocs/op"),
		l("pdrtree.bulkload_s", "s"),
		l("pdrtree.petq_us", "us"),
		l("pdrtree.topk_us", "us"),
		l("pdrtree.allocs_per_query", "allocs/q"),
		l("pdrtree.nodes_per_query", "count/q"),
		l("pdrtree.pruned_share", "ratio"),
		l("pdrtree.alloc_bytes_per_query", "B/q"),
		l("core.insert_us", "us"),
		l("core.clone_s", "s"),
		l("core.save_s", "s"),
		l("core.load_s", "s"),
		l("core.live_apply_ms", "ms"),
		l("core.live_query_us", "us"),
		l("wal.append_us", "us"),
		l("wal.sync_ms", "ms"),
		l("wal.ops_per_fsync", "ops"),
		l("wal.replay_ms", "ms"),
		l("wal.bytes_per_op", "B/op"),
		l("wire.encode_ns", "ns"),
		l("wire.decode_ns", "ns"),
		l("server.queue_wait_ms_p50", "ms"),
		l("server.exec_ms_p50", "ms"),
		l("server.overhead_us", "us"),
		l("server.ingest_ms_p50", "ms"),
		l("server.alloc_bytes_per_query", "B/q"),
		l("obs.trace_overhead_pct", "%"),
	)
	return defs
}

// phaseCount tallies the operations one phase of a workload attempted and
// how many of them failed (an error or a non-OK status from the program).
type phaseCount struct {
	name      string
	attempted int64
	failed    int64
	note      string // why operations failed, when they are known to
}

// report is what a workload run produces.
type report struct {
	metrics  map[string]float64
	phases   []*phaseCount
	problems []string // failed output checks
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) phase(name string) *phaseCount {
	p := &phaseCount{name: name}
	r.phases = append(r.phases, p)
	return p
}

// checkf records a failed output check; the run then reports correct=false.
func (r *report) checkf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records err, when non-nil, as a failed output check.
func (r *report) check(what string, err error) {
	if err != nil {
		r.checkf("%s: %v", what, err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the per-phase tallies and any failed checks, then the result
// object as the last line. An end-to-end metric a workload did not measure
// is an error; a per-layer metric it did not measure reads 0 (the layer is
// bypassed or not measured on that workload; see README.md).
func emit(w io.Writer, workload string, traced bool, rep *report) error {
	res := result{Correct: len(rep.problems) == 0, Metrics: map[string]metricValue{}}
	for _, p := range rep.phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		fmt.Fprintf(w, "phase %s/%s: attempted %d, failed %d\n", workload, p.name, p.attempted, p.failed)
		if p.note != "" {
			fmt.Fprintf(w, "phase %s/%s: %s\n", workload, p.name, p.note)
		}
	}
	for i, msg := range rep.problems {
		if i == 20 {
			fmt.Fprintf(w, "check: … %d more failed checks\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(w, "check FAILED: %s\n", msg)
	}
	for _, d := range allMetrics() {
		if d.endToEnd == traced {
			continue
		}
		v, ok := rep.metrics[d.name]
		if !ok && d.endToEnd {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", workload)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// percentile returns the p-quantile (0 < p ≤ 1, nearest rank) of vals,
// sorting vals in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(p * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// heapPeak keeps the highest live heap (bytes still reachable after a
// forced collection) the program holds at fixed points of a run: after
// each set-up and at the end of each phase. Taking it at fixed points,
// after a collection, makes the figure independent of when the collector
// happened to run; it is not the transient high-water mark within a
// phase. The benchmark's own data (the dataset, the queries and their
// oracle answers, the writer's model, the answer logs, sized in advance)
// is measured once as the base, before the program holds anything, and
// subtracted; the benchmark lets go of its per-phase buffers before each
// mark.
type heapPeak struct{ base, peak uint64 }

func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// setBase records the benchmark's own live heap.
func (h *heapPeak) setBase() { h.base = liveHeap() }

func (h *heapPeak) mark() {
	if v := liveHeap(); v > h.base && v-h.base > h.peak {
		h.peak = v - h.base
	}
}

func (h *heapPeak) mb() float64 { return mb(int64(h.peak)) }

// allocDelta measures the heap allocations of fn: objects and bytes. The
// counters are process-wide, so fn should hold only the calls measured.
func allocDelta(fn func()) (objects, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}
