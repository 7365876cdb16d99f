package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/pdrtree"
	"ucat/internal/server"
	"ucat/internal/uda"
)

// serve-crm2: CRM2 bulk-loaded into a PDR relation, saved and loaded back
// the way ucatd loads a snapshot, and served by server.New with ucatd's
// defaults for two workers (a shared CLOCK pool of 200 frames, the 8 MB
// decode cache, batching off). Two closed-loop clients send a Zipf-skewed
// petq/topk/window mix, every other request as JSON and the rest as binary
// ucatwire. The relation is far larger than both the pool and the cache.

const (
	serveWorkers = 2
	serveClients = 2
	serveRound   = 768 // requests per round
)

// servedSystem is one set-up: the relation and the server over it.
type servedSystem struct {
	rel *core.Relation
	srv *server.Server
	reg *obs.Registry
}

func (s *servedSystem) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // an idle server drains at once; nothing to report
}

// setupServed bulk-loads the tuples, round-trips the snapshot through a
// file and starts the server. It returns the bulk-load time too.
func setupServed(tuples []uda.UDA, dir string) (*servedSystem, time.Duration, error) {
	t0 := time.Now()
	built, err := core.BulkLoad(core.Options{Kind: core.PDRTree}, tuples)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	path := filepath.Join(dir, "crm2.ucat")
	if err := built.SaveFile(path); err != nil {
		return nil, 0, err
	}
	rel, err := core.LoadRelationFile(path)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{Relation: rel, Workers: serveWorkers, Registry: reg})
	if err != nil {
		return nil, 0, err
	}
	return &servedSystem{rel: rel, srv: srv, reg: reg}, build, nil
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	var heap heapPeak
	dir, err := os.MkdirTemp(cfg.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The benchmark's own data: CRM2, the query specs calibrated against
	// it, and the answer log. The served query set is fixed like the
	// dataset; the seed orders it.
	d := dataset.CRM2Like(datasetSeed, cfg.scaled(dataset.CRMSize))
	r := rand.New(rand.NewSource(datasetSeed ^ 0x5e77e))
	counts := zipfCounts(serveRound)
	specs, err := makeSpecs(len(counts), r, d.Tuples, d.Tuples, specKinds)
	if err != nil {
		return nil, err
	}
	round := schedule(specs, counts, rand.New(rand.NewSource(cfg.seed)))
	log := newAnswerLog(specs)
	heap.setBase()

	var sys *servedSystem
	var setups, builds []float64
	// Set-up -1 warms the process (heap growth, page faults) and is not
	// counted.
	for i := -1; i < cfg.setupReps(); i++ {
		if sys != nil {
			sys.shutdown()
			sys = nil
		}
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		t0 := time.Now()
		var build time.Duration
		if sys, build, err = setupServed(d.Tuples, dir); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		heap.mark()
		if i >= 0 {
			setups = append(setups, took.Seconds())
			builds = append(builds, build.Seconds())
		}
	}
	defer sys.shutdown()
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["build_s"] = median(builds)

	dc0 := sys.rel.DecodeCache().Stats()
	qp := rep.phase("query")
	st := drive(sys.srv, newDispenser(round, cfg.seconds), serveClients, log, qp)
	st.metrics(rep.metrics)
	rep.metrics["ios_per_query"] = float64(st.ios) / float64(len(st.lat))
	rep.metrics["store_mb"] = mb(sys.rel.Pool().Store().Bytes())
	st = servedStats{} // the samples are the benchmark's, not the program's heap
	heap.mark()

	if cfg.trace {
		rep.metrics["dcache.hit_rate"] = cacheHitRate(dc0, sys.rel.DecodeCache().Stats())
		rep.metrics["server.queue_wait_ms_p50"] = sys.reg.Histogram("ucat_serve_queue_wait_ns").Snapshot().P50 / 1e6
		if err := serveLayers(cfg, sys, d.Tuples, specs, round, log, rep); err != nil {
			return nil, err
		}
	}
	log.verify(rep, "served", d.Tuples)
	heap.mark()
	rep.metrics["peak_heap_mb"] = heap.mb()
	return rep, nil
}

// servedStats aggregates what the clients saw.
type servedStats struct {
	lat       []float64 // client-seen ms per completed query
	exec      []float64 // the server's elapsed_ns, in ms
	overhead  time.Duration
	ios       uint64
	wall      time.Duration
	encode    time.Duration // binary requests only
	decode    time.Duration
	binaryOps int64
}

func (st *servedStats) merge(o *servedStats) {
	st.lat = append(st.lat, o.lat...)
	st.exec = append(st.exec, o.exec...)
	st.overhead += o.overhead
	st.ios += o.ios
	st.encode += o.encode
	st.decode += o.decode
	st.binaryOps += o.binaryOps
}

// metrics writes the end-to-end query metrics and the client-side
// per-layer ones.
func (st *servedStats) metrics(m map[string]float64) {
	n := float64(len(st.lat))
	m["query_qps"] = n / st.wall.Seconds()
	m["query_ms_p50"] = percentile(append([]float64(nil), st.lat...), 0.50)
	m["query_ms_p90"] = percentile(append([]float64(nil), st.lat...), 0.90)
	m["server.exec_ms_p50"] = percentile(append([]float64(nil), st.exec...), 0.50)
	m["server.overhead_us"] = float64(st.overhead.Nanoseconds()) / 1e3 / n
	if st.binaryOps > 0 {
		m["wire.encode_ns"] = float64(st.encode.Nanoseconds()) / float64(st.binaryOps)
		m["wire.decode_ns"] = float64(st.decode.Nanoseconds()) / float64(st.binaryOps)
	}
}

// drive runs closed-loop clients against h, taking requests from ds;
// every other request is sent as JSON, the rest as binary.
func drive(h *server.Server, ds *dispenser, clients int, log *answerLog, qp *phaseCount) servedStats {
	var mu sync.Mutex
	var total servedStats
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st servedStats
			var attempted, failed int64
			for {
				i, sp, ok := ds.take()
				if !ok {
					break
				}
				binary := i%2 == 1
				attempted++
				res, ct, err := sendQuery(h, sp, binary)
				if err != nil {
					failed++
					continue
				}
				total := ct.encode + ct.handler + ct.decode
				st.lat = append(st.lat, ms(total))
				st.exec = append(st.exec, float64(res.elapsedNS)/1e6)
				st.overhead += total - time.Duration(res.elapsedNS)
				st.ios += res.ios
				if binary {
					st.encode += ct.encode
					st.decode += ct.decode
					st.binaryOps++
				}
				via := "json"
				if binary {
					via = "binary"
				}
				log.record(sp, res.matches, via)
			}
			mu.Lock()
			total.merge(&st)
			qp.attempted += attempted
			qp.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	return total
}

// serveLayers measures the layers under the server: the query stream
// replayed straight to core (replayLayers), the uda layer on the served
// answers, and a stand-alone bulk load of the relation's tuples.
func serveLayers(cfg config, sys *servedSystem, data []uda.UDA, specs, round []*querySpec, log *answerLog, rep *report) error {
	engine := func(v pager.View) core.QueryEngine { return sys.rel.Reader(v) }
	timed := func() *dispenser { return newDispenser(round, cfg.seconds/2) }
	replayLayers(timed, engine, sys.rel.Pool().Store(), log, rep)
	if err := serverAllocs(sys.srv, specs, rep); err != nil {
		return err
	}

	answerUDA(rep, specs, log, data)

	t0 := time.Now()
	tuples := make([]pdrtree.Tuple, len(data))
	for i, u := range data {
		tuples[i] = pdrtree.Tuple{TID: uint32(i), Value: u}
	}
	if _, err := pdrtree.BulkLoad(pager.NewPool(pager.NewStore(), pager.DefaultPoolFrames), pdrtree.Config{}, tuples); err != nil {
		return err
	}
	rep.metrics["pdrtree.bulkload_s"] = time.Since(t0).Seconds()
	return nil
}

// replayLayers sends the clients' rounds of requests straight to engine
// over a shared pool built like the server's (200 frames, CLOCK, a Session
// per query, two goroutines): the requests of one dispenser untraced, for
// the allocations and the tracing-overhead baseline, then those of another
// traced through a timed, instrumented view, each on a cold pool of its
// own.
func replayLayers(dispense func() *dispenser, engine func(pager.View) core.QueryEngine, store *pager.Store,
	log *answerLog, rep *report) {
	newPool := func() *pager.Pool {
		return pager.NewSharedPool(store, serveWorkers*pager.DefaultPoolFrames, 2*serveWorkers, pager.CLOCK)
	}
	rp := rep.phase("replay")
	var untraced replayStats
	pool, ds := newPool(), dispense()
	objs, bytes := allocDelta(func() { untraced = replay(engine, pool, ds, false, log, rp) })
	n := float64(untraced.queries)
	rep.metrics["pdrtree.allocs_per_query"] = float64(objs) / n
	rep.metrics["pdrtree.alloc_bytes_per_query"] = float64(bytes) / n
	pool = newPool() // cold like the untraced half's
	traced := replay(engine, pool, dispense(), true, log, rp)
	traced.tally.pagerMetrics(rep.metrics)
	rep.metrics["pager.evictions_per_query"] = float64(pool.Evictions()) / float64(traced.queries)
	traced.tally.pdrMetrics(rep.metrics)
	if traced.tally.selfTotal() != traced.tally.roots {
		rep.checkf("layer self times add up to %v, traced queries took %v", traced.tally.selfTotal(), traced.tally.roots)
	}
	rep.metrics["obs.trace_overhead_pct"] = (traced.meanNS()/untraced.meanNS() - 1) * 100
}

// serverAllocs measures what the serving path allocates per request on
// its own: every spec's query sent once per protocol with τ = 1, which the
// index answers at its root with nothing, so request decoding, admission,
// the flight record and the response make up the allocation. The requests
// are encoded, and the responses decoded, outside the measurement, and
// each response lands in a buffer sized in advance.
func serverAllocs(h http.Handler, specs []*querySpec, rep *report) error {
	var reqs []*http.Request
	var ws []*probeWriter
	var binary []bool
	for _, sp := range specs {
		probe := &querySpec{kind: "petq", q: sp.q, tau: 1}
		for _, b := range []bool{false, true} {
			req, err := queryRequest(probe, b)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
			ws = append(ws, newProbeWriter())
			binary = append(binary, b)
		}
	}
	_, bytes := allocDelta(func() {
		for i, req := range reqs {
			h.ServeHTTP(ws[i], req)
		}
	})
	for i, w := range ws {
		if _, err := decodeResponse(w.code, w.body.Bytes(), binary[i]); err != nil {
			return fmt.Errorf("empty-answer probe: %w", err)
		}
	}
	rep.metrics["server.alloc_bytes_per_query"] = float64(bytes) / float64(len(reqs))
	return nil
}

// probeWriter is a ResponseWriter whose header map and body buffer are
// allocated before the request is served, so that serving it allocates
// only what the handler does.
type probeWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newProbeWriter() *probeWriter {
	w := &probeWriter{header: make(http.Header, 4)}
	w.body.Grow(2048)
	return w
}

func (w *probeWriter) Header() http.Header { return w.header }

func (w *probeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *probeWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// answerUDA runs udaMetrics on each spec's query against the first answers
// the program gave it.
func answerUDA(rep *report, specs []*querySpec, log *answerLog, tuples []uda.UDA) {
	var qs, ts []uda.UDA
	for _, sp := range specs {
		first := log.firstAnswer(sp)
		for _, a := range first[:min(len(first), 32)] {
			qs = append(qs, sp.q)
			ts = append(ts, tuples[a.TID])
		}
	}
	udaMetrics(rep, qs, ts, int64(len(specs)))
}

// coreSpans names the benchmark's root span of each query kind.
var coreSpans = map[string]string{"petq": "core.petq", "topk": "core.topk", "window": "core.window"}

// run sends the spec's query to the engine.
func (sp *querySpec) run(rd core.QueryEngine) ([]core.Match, error) {
	switch sp.kind {
	case "topk":
		return rd.TopK(sp.q, sp.k)
	case "window":
		return rd.WindowPETQ(sp.q, sp.c, sp.tau)
	default:
		return rd.PETQ(sp.q, sp.tau)
	}
}

type replayStats struct {
	queries int64
	busy    time.Duration
	tally   *layerTally
}

func (s replayStats) meanNS() float64 { return float64(s.busy.Nanoseconds()) / float64(s.queries) }

// replay runs the clients' requests from ds directly against the engine
// that engine builds over a Session of pool.
func replay(engine func(pager.View) core.QueryEngine, pool *pager.Pool, ds *dispenser,
	traced bool, log *answerLog, rp *phaseCount) replayStats {
	var mu sync.Mutex
	total := replayStats{tally: newLayerTally()}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *obs.Recorder
			if traced {
				rec = obs.NewRecorder()
			}
			st := replayStats{tally: newLayerTally()}
			var attempted, failed int64
			var got []answer
			for {
				_, sp, ok := ds.take()
				if !ok {
					break
				}
				var view pager.View = pool.Session()
				if traced {
					view = newTimedView(view, rec)
				}
				rd := engine(view)
				attempted++
				t0 := time.Now()
				var ms []core.Match
				var err error
				if traced {
					ms, err = spanned(rec, coreSpans[sp.kind], func() ([]core.Match, error) { return sp.run(rd) })
				} else {
					ms, err = sp.run(rd)
				}
				st.busy += time.Since(t0)
				st.queries++
				if traced {
					st.tally.add(rec)
				}
				if err != nil {
					failed++
					continue
				}
				got = got[:0]
				for _, m := range ms {
					got = append(got, answer{TID: m.TID, Prob: m.Prob})
				}
				log.record(sp, got, "direct")
			}
			mu.Lock()
			total.queries += st.queries
			total.busy += st.busy
			total.tally.merge(st.tally)
			rp.attempted += attempted
			rp.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
