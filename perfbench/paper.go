package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/dcache"
	"ucat/internal/exp"
	"ucat/internal/invidx"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/pdrtree"
	"ucat/internal/uda"
)

// paper-crm1: the Figure 6 experiment through core. CRM1 is built into an
// inverted index and a PDR-tree by repeated Insert under the 4096-frame
// build pool, then PETQ and top-k run at the paper's four selectivities on
// both, one goroutine, each query against a cleared 100-frame pool (the
// paper's "100 blocks to each query"; a cleared pool and a fresh one give
// identical I/O counts).

const buildFrames = 4096

// paperQuery is one query and its calibrated points.
type paperQuery struct {
	q      uda.UDA
	prob   func(tid uint32) (float64, bool) // the oracle, for checking answers
	points []paperPoint                     // one per selectivity
}

// paperPoint is one query at one selectivity: the PETQ threshold, the
// top-k k, and the oracle's answers to both.
type paperPoint struct {
	tau        float64
	k          int
	petq, topk expected
}

type paperSetup struct {
	d       *dataset.Dataset
	queries []paperQuery
}

// newPaperSetup generates CRM1 and the queries, and calibrates each
// query's τ and k at every selectivity against the oracle.
func newPaperSetup(cfg config) (*paperSetup, error) {
	n := cfg.scaled(dataset.CRMSize)
	d := dataset.CRM1Like(datasetSeed, n)
	// The query set is fixed like the dataset (see datasetSeed); the seed
	// orders it.
	r := rand.New(rand.NewSource(datasetSeed ^ 0x5eed))
	s := &paperSetup{d: d, queries: make([]paperQuery, cfg.paperQueries())}
	qs := stratified(d.Tuples, len(s.queries), r)
	err := parallel(len(qs), func(i int) error {
		q := qs[i]
		probs := probsFor(d.Tuples, func(t uda.UDA) float64 { return eqProb(q, t) })
		pq := paperQuery{q: q, prob: tupleProb(q, 0, d.Tuples)}
		for _, sel := range exp.Selectivities {
			target := max(int(sel*float64(n)+0.5), 1)
			tau, _, petq, err := calibrated(probs, target, false)
			if err != nil {
				return fmt.Errorf("paper-crm1: query %d at selectivity %g: %w", i, sel, err)
			}
			_, k, topk, _ := calibrated(probs, target, true)
			pq.points = append(pq.points, paperPoint{tau: tau, k: k, petq: petq, topk: topk})
		}
		s.queries[i] = pq
		return nil
	})
	order := rand.New(rand.NewSource(cfg.seed))
	order.Shuffle(len(s.queries), func(i, j int) { s.queries[i], s.queries[j] = s.queries[j], s.queries[i] })
	return s, err
}

// paperIndex is one of the two relations under test.
type paperIndex struct {
	label string
	rel   *core.Relation
	pool  *pager.Pool // the per-query pool, cleared before every query

	tuples     []uda.UDA // the relation's tuples by id
	udaLeft    int       // traced PETQs whose answers still feed the uda sample
	udaQ, udaT []uda.UDA // the uda sample: query and answer tuple
}

func runPaper(cfg config) (*report, error) {
	rep := newReport()
	var heap heapPeak

	var s *paperSetup
	var setups []float64
	// Set-up -1 warms the process (heap growth, page faults) and is not
	// counted.
	for i := -1; i < cfg.setupReps(); i++ {
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		t0 := time.Now()
		var err error
		if s, err = newPaperSetup(cfg); err != nil {
			return nil, err
		}
		if i >= 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	rep.metrics["setup_s"] = median(setups)
	reserveAnswers(s.maxAnswer())
	heap.setBase() // the data and the queries; the program holds nothing yet

	idx, err := paperBuild(cfg, s, rep, &heap)
	if err != nil {
		return nil, err
	}
	heap.mark()

	qp := rep.phase("query")
	var lat []float64
	var ios uint64
	var busy time.Duration
	var tally map[string]*layerTally
	allocs := map[string][2]uint64{}
	// queryPhase runs whole rounds for d; with measure, it counts each
	// query's allocations (the query call alone, not its check).
	queryPhase := func(d time.Duration, rec *obs.Recorder, measure bool) {
		start := time.Now()
		for {
			for _, ix := range idx {
				var a *[2]uint64
				if measure {
					a = new([2]uint64)
				}
				for _, pq := range s.queries {
					for pi := range pq.points {
						for _, topk := range []bool{false, true} {
							l, io := paperQueryOnce(rep, qp, ix, pq, pi, topk, rec, tally, a)
							lat = append(lat, ms(l))
							busy += l
							ios += io
						}
					}
				}
				if measure {
					sum := allocs[ix.label]
					allocs[ix.label] = [2]uint64{sum[0] + a[0], sum[1] + a[1]}
				}
			}
			if time.Since(start) >= d {
				return
			}
		}
	}

	if !cfg.trace {
		queryPhase(cfg.seconds, nil, false)
	} else {
		// Untraced half first: the baseline for the tracing overhead and
		// the allocation counts, which spans would inflate.
		queryPhase(cfg.seconds/2, nil, true)
		untracedMean := float64(busy) / float64(len(lat))
		perIndex := int64(len(lat)) / 2
		for _, ix := range idx {
			a := allocs[ix.label]
			switch ix.label {
			case "inverted":
				rep.metrics["invidx.alloc_bytes_per_query"] = float64(a[1]) / float64(perIndex)
			case "pdrtree":
				rep.metrics["pdrtree.allocs_per_query"] = float64(a[0]) / float64(perIndex)
				rep.metrics["pdrtree.alloc_bytes_per_query"] = float64(a[1]) / float64(perIndex)
			}
		}
		lat, busy, ios = lat[:0], 0, 0
		dc0 := decodeStats(idx)
		rec := obs.NewRecorder()
		tally = map[string]*layerTally{"inverted": newLayerTally(), "pdrtree": newLayerTally()}
		queryPhase(cfg.seconds/2, rec, false)
		tracedMean := float64(busy) / float64(len(lat))
		rep.metrics["dcache.hit_rate"] = cacheHitRate(dc0, decodeStats(idx))
		rep.metrics["obs.trace_overhead_pct"] = (tracedMean/untracedMean - 1) * 100
		paperLayerMetrics(rep, tally)
		paperStrategies(s, idx[0], rep)
		var qs, ts []uda.UDA
		for _, ix := range idx {
			qs, ts = append(qs, ix.udaQ...), append(ts, ix.udaT...)
		}
		udaMetrics(rep, qs, ts, int64(len(s.queries)*len(exp.Selectivities)))
	}
	rep.metrics["query_qps"] = float64(len(lat)) / busy.Seconds()
	rep.metrics["ios_per_query"] = float64(ios) / float64(len(lat))
	rep.metrics["query_ms_p50"] = percentile(lat, 0.50)
	rep.metrics["query_ms_p90"] = percentile(lat, 0.90)
	var store int64
	for _, ix := range idx {
		store += ix.rel.Pool().Store().Bytes()
	}
	rep.metrics["store_mb"] = mb(store)
	lat = nil
	heap.mark()
	rep.metrics["peak_heap_mb"] = heap.mb()
	return rep, nil
}

// maxAnswer is the largest answer any query point expects.
func (s *paperSetup) maxAnswer() int {
	n := 0
	for _, pq := range s.queries {
		for _, pt := range pq.points {
			n = max(n, pt.petq.k, pt.topk.k)
		}
	}
	return n
}

// paperBuild inserts every tuple into both relations and shrinks their
// pools to the paper's 100 frames; the heap is marked before the pools
// shrink. In a traced run it also times each core Insert on the PDR
// relation, and builds a stand-alone PDR-tree over the same tuples to time
// pdrtree.Insert alone.
func paperBuild(cfg config, s *paperSetup, rep *report, heap *heapPeak) ([]*paperIndex, error) {
	bp := rep.phase("build")
	inv, err := core.NewRelation(core.Options{Kind: core.InvertedIndex, PoolFrames: buildFrames, InvStrategy: invidx.NRA})
	if err != nil {
		return nil, err
	}
	pdr, err := core.NewRelation(core.Options{Kind: core.PDRTree, PoolFrames: buildFrames})
	if err != nil {
		return nil, err
	}
	var coreInsert time.Duration
	runtime.GC() // the build starts from a collected heap
	t0 := time.Now()
	for _, rel := range []*core.Relation{inv, pdr} {
		timed := cfg.trace && rel == pdr
		for i, u := range s.d.Tuples {
			bp.attempted++
			var t1 time.Time
			if timed {
				t1 = time.Now()
			}
			tid, err := rel.Insert(u)
			if timed {
				coreInsert += time.Since(t1)
			}
			if err != nil {
				bp.failed++
				continue
			}
			if tid != uint32(i) {
				rep.checkf("%s insert %d was assigned tuple id %d", rel.Kind(), i, tid)
			}
		}
	}
	build := time.Since(t0)
	heap.mark()
	t0 = time.Now()
	for _, rel := range []*core.Relation{inv, pdr} {
		if err := rel.Pool().Resize(pager.DefaultPoolFrames); err != nil {
			return nil, err
		}
		if rel.Len() != len(s.d.Tuples) {
			rep.checkf("%s holds %d tuples after the build, want %d", rel.Kind(), rel.Len(), len(s.d.Tuples))
		}
	}
	rep.metrics["build_s"] = (build + time.Since(t0)).Seconds()

	if cfg.trace {
		n := float64(len(s.d.Tuples))
		rep.metrics["core.insert_us"] = float64(coreInsert.Nanoseconds()) / 1e3 / n
		tree, err := pdrtree.New(pager.NewPool(pager.NewStore(), buildFrames), pdrtree.Config{})
		if err != nil {
			return nil, err
		}
		var treeInsert time.Duration
		var insertErr error
		objs, _ := allocDelta(func() {
			t1 := time.Now()
			for i, u := range s.d.Tuples {
				if insertErr = tree.Insert(uint32(i), u); insertErr != nil {
					return
				}
			}
			treeInsert = time.Since(t1)
		})
		if insertErr != nil {
			return nil, fmt.Errorf("stand-alone pdrtree insert: %w", insertErr)
		}
		rep.metrics["pdrtree.insert_us"] = float64(treeInsert.Nanoseconds()) / 1e3 / n
		rep.metrics["pdrtree.insert_allocs"] = float64(objs) / n
	}

	var idx []*paperIndex
	for _, ix := range []struct {
		label string
		rel   *core.Relation
	}{{"inverted", inv}, {"pdrtree", pdr}} {
		idx = append(idx, &paperIndex{label: ix.label, rel: ix.rel,
			pool:   pager.NewPool(ix.rel.Pool().Store(), pager.DefaultPoolFrames),
			tuples: s.d.Tuples, udaLeft: len(s.queries) * len(exp.Selectivities)})
	}
	return idx, nil
}

// paperQueryOnce runs one query against a cleared pool and checks its
// answer. It returns the query's wall time and its I/O count. With a
// recorder, the query runs under a root span through a timed,
// instrumented view, and its spans go into tally. With allocs, the query
// call's allocations (objects, bytes) are added to it.
func paperQueryOnce(rep *report, qp *phaseCount, ix *paperIndex, pq paperQuery, pi int,
	topk bool, rec *obs.Recorder, tally map[string]*layerTally, allocs *[2]uint64) (time.Duration, uint64) {
	pt := pq.points[pi]
	if err := ix.pool.Clear(); err != nil {
		rep.checkf("clearing the query pool: %v", err)
	}
	before := ix.pool.Stats()
	var view pager.View = ix.pool
	if rec != nil {
		view = newTimedView(ix.pool, rec)
	}
	rd := ix.rel.Reader(view)
	qp.attempted++
	kind := "petq"
	if topk {
		kind = "topk"
	}
	var ms []core.Match
	var err error
	var lat time.Duration
	query := func() {
		t0 := time.Now()
		ms, err = spanned(rec, coreSpans[kind], func() ([]core.Match, error) {
			if topk {
				return rd.TopK(pq.q, pt.k)
			}
			return rd.PETQ(pq.q, pt.tau)
		})
		lat = time.Since(t0)
	}
	if allocs != nil {
		o, b := allocDelta(query)
		allocs[0] += o
		allocs[1] += b
	} else {
		query()
	}
	io := ix.pool.Stats().Sub(before).IOs()
	if err != nil {
		qp.failed++
		return lat, io
	}
	if rec != nil && !topk && len(ms) > 0 && ix.udaLeft > 0 {
		// The uda layer is timed afterwards on these inputs: each traced
		// PETQ's query against its first answers.
		for _, m := range ms[:min(len(ms), 32)] {
			ix.udaQ = append(ix.udaQ, pq.q)
			ix.udaT = append(ix.udaT, ix.tuples[m.TID])
		}
		ix.udaLeft--
	}
	if rec != nil && !topk && len(ms) > 0 {
		if _, err := spanned(rec, "tuplestore.get", func() (uda.UDA, error) { return rd.Get(ms[0].TID) }); err != nil {
			rep.checkf("%s get of tuple %d: %v", ix.label, ms[0].TID, err)
		}
	}
	if rec != nil {
		tally[ix.label].add(rec)
	}
	want := &pt.petq
	if topk {
		want = &pt.topk
	}
	rep.check(ix.label+" "+kind, want.check(toAnswers(ms), pq.prob))
	return lat, io
}

// spanned runs fn under a span named name (no span when rec is nil).
func spanned[T any](rec *obs.Recorder, name string, fn func() (T, error)) (T, error) {
	sp := rec.StartSpan(name)
	defer sp.End()
	return fn()
}

var answerBuf []answer

// reserveAnswers sizes the answer and check buffers for answers of up to n
// tuples, so that they are part of the benchmark's own heap.
func reserveAnswers(n int) {
	answerBuf = make([]answer, 0, n)
	checkBuf = make([]answer, 0, n)
}

// toAnswers converts matches into the oracle's answer type, reusing one
// buffer (the checks run on one goroutine per workload phase).
func toAnswers(ms []core.Match) []answer {
	answerBuf = answerBuf[:0]
	for _, m := range ms {
		answerBuf = append(answerBuf, answer{TID: m.TID, Prob: m.Prob})
	}
	return answerBuf
}

// decodeStats sums the decoded-page cache counters of the relations.
func decodeStats(idx []*paperIndex) dcache.Stats {
	var st dcache.Stats
	for _, ix := range idx {
		if dc := ix.rel.DecodeCache(); dc != nil {
			c := dc.Stats()
			st.Hits += c.Hits
			st.Misses += c.Misses
		}
	}
	return st
}

// cacheHitRate is the decoded-page cache hit rate between two snapshots.
func cacheHitRate(before, after dcache.Stats) float64 {
	h, m := after.Hits-before.Hits, after.Misses-before.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// paperLayerMetrics turns the traced tallies into per-layer metrics.
func paperLayerMetrics(rep *report, tally map[string]*layerTally) {
	all := newLayerTally()
	for _, t := range tally {
		all.merge(t)
	}
	if all.selfTotal() != all.roots {
		rep.checkf("layer self times add up to %v, traced queries took %v", all.selfTotal(), all.roots)
	}
	all.pagerMetrics(rep.metrics)
	tally["pdrtree"].pdrMetrics(rep.metrics)
	inv := tally["inverted"]
	rep.metrics["btree.node_visits_per_query"] = inv.perQuery(inv.counters["btree.nodes"])
	rep.metrics["invidx.list_advances_per_query"] = inv.perQuery(inv.counters["inv.advances"])
	rep.metrics["invidx.probes_per_query"] = inv.perQuery(inv.counters["inv.probes"])
	rep.metrics["tuplestore.get_us"] = all.meanSelfUS("tuplestore.get")
}

// strategyQueries bounds the queries each strategy runs: the slowest
// strategies take tens of milliseconds per query on CRM1.
const strategyQueries = 16

// paperStrategies runs the PETQ points of the first strategyQueries
// queries once under each inverted-index strategy: mean wall time,
// allocations and I/Os per query.
func paperStrategies(s *paperSetup, inv *paperIndex, rep *report) {
	sp := rep.phase("strategies")
	names := map[string]invidx.Strategy{
		"bruteforce": invidx.BruteForce, "hpf": invidx.HighestProbFirst,
		"rowpruning": invidx.RowPruning, "colpruning": invidx.ColumnPruning,
		"nra": invidx.NRA, "auto": invidx.Auto,
	}
	for _, st := range strategies {
		inv.rel.SetInvStrategy(names[st])
		var busy time.Duration
		var ios uint64
		var n int
		var allocs [2]uint64
		for _, pq := range s.queries[:min(len(s.queries), strategyQueries)] {
			for pi := range pq.points {
				l, io := paperQueryOnce(rep, sp, inv, pq, pi, false, nil, nil, &allocs)
				busy += l
				ios += io
				n++
			}
		}
		rep.metrics["invidx.petq_us."+st] = float64(busy.Nanoseconds()) / 1e3 / float64(n)
		rep.metrics["invidx.petq_allocs."+st] = float64(allocs[0]) / float64(n)
		rep.metrics["invidx.petq_ios."+st] = float64(ios) / float64(n)
	}
	inv.rel.SetInvStrategy(invidx.NRA)
}

var udaSink float64

// udaMetrics times uda.EqualityProb over the (query, tuple) pairs and
// uda.Decode over the tuples' encodings, and charges the decoding's
// allocations to the queries the pairs were drawn from.
func udaMetrics(rep *report, qs, ts []uda.UDA, queries int64) {
	if len(ts) == 0 || queries == 0 {
		return
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range qs {
			udaSink += uda.EqualityProb(qs[i], ts[i])
		}
	}
	rep.metrics["uda.eqprob_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(qs))
	var enc [][]byte
	for _, t := range ts {
		b, err := uda.AppendEncode(nil, t)
		if err != nil {
			rep.checkf("uda encode: %v", err)
			return
		}
		enc = append(enc, b)
	}
	var decodeErr error
	var dt time.Duration
	_, bytes := allocDelta(func() {
		t1 := time.Now()
		for _, b := range enc {
			u, _, err := uda.Decode(b)
			if err != nil {
				decodeErr = err
				return
			}
			udaSink += float64(u.Len())
		}
		dt = time.Since(t1)
	})
	if decodeErr != nil {
		rep.checkf("uda decode: %v", decodeErr)
		return
	}
	rep.metrics["uda.decode_ns"] = float64(dt.Nanoseconds()) / float64(len(enc))
	rep.metrics["uda.alloc_bytes_per_query"] = float64(bytes) / float64(queries)
}
