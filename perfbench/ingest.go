package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ucat/internal/core"
	"ucat/internal/dataset"
	"ucat/internal/obs"
	"ucat/internal/pager"
	"ucat/internal/pdrtree"
	"ucat/internal/server"
	"ucat/internal/uda"
	"ucat/internal/wal"
)

// ingest-crm1: a core.Live over a bulk-loaded CRM1 snapshot, served with
// ucatd's -wal defaults (fsync group, 2 ms window, no automatic fold). One
// client posts a fixed count of insert/update/delete ops in fixed-size
// batches to /v1/ingest while a second queries the live view, one request
// per acknowledged batch; the timed query phase follows, a fixed count of
// requests over the live view with the whole overlay. The Live is then
// closed, recovered with OpenLive (snapshot plus WAL tail) and folded once
// with Checkpoint. The writer's items lie outside the readers' query
// domain, so concurrent reads stay exactly checkable. Every count in the
// workload is fixed, so the fold and the replay do the same work in every
// run, and the one operation the program fails on (see foldWide) is the
// same share of the attempted operations in every run.

const (
	ingestOps      = 8192
	ingestBatch    = 8 // ops per request: ucatload's -ingestbatch default
	ingestItemBase = 1 << 20
	ingestItems    = 50   // the writer's domain, as wide as CRM1's
	wideItems      = 1024 // ucatload -ingest's domain
	wideOps        = 2048
	wideBatch      = 64
	ingestRound    = 768 // reader requests per round
	recoverReps    = 3
)

// ingestReads is the timed query phase's request count: one round for
// every two seconds of --seconds (about that long on the reference host).
// A count, not a deadline, keeps every run's operations the same.
func ingestReads(cfg config) int {
	return ingestRound * max(1, int(math.Round(cfg.seconds.Seconds()/2)))
}

type ingestSystem struct {
	opts   core.LiveOptions
	lv     *core.Live
	srv    *server.Server
	reg    *obs.Registry
	closed bool
}

func (s *ingestSystem) shutdown() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return s.lv.Close()
}

func liveOptions(dir, origin string) core.LiveOptions {
	return core.LiveOptions{
		Dir:        filepath.Join(dir, "wal"),
		WAL:        wal.Options{Fsync: wal.FsyncGroup},
		OriginPath: origin,
	}
}

// setupIngest bulk-loads the tuples and saves them as the origin
// snapshot, opens the Live over it and starts the server.
func setupIngest(tuples []uda.UDA, dir string) (*ingestSystem, time.Duration, error) {
	t0 := time.Now()
	base, err := core.BulkLoad(core.Options{Kind: core.PDRTree}, tuples)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	origin := filepath.Join(dir, "origin.ucat")
	if err := base.SaveFile(origin); err != nil {
		return nil, 0, err
	}
	opts := liveOptions(dir, origin)
	lv, err := core.OpenLive(opts)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{Live: lv, Workers: serveWorkers, Registry: reg})
	if err != nil {
		_ = lv.Close() // the server error is the one to report
		return nil, 0, err
	}
	return &ingestSystem{opts: opts, lv: lv, srv: srv, reg: reg}, build, nil
}

// writerPlan is the writer's whole op stream, drawn before the program
// runs, and the benchmark's own model of it: the tuple id each op must be
// acknowledged with (inserts get consecutive fresh ids), the live writer
// tuples after the last op, and every inserted distribution in LSN order.
type writerPlan struct {
	bodies   [][]byte       // one /v1/ingest request per batch
	batches  [][]wal.Record // each batch's ops as the WAL must log them
	live     map[uint32]uda.UDA
	inserted []uda.UDA
}

// writerDist draws a distribution shaped like ucatload -ingest's: two
// adjacent items with probabilities 0.6 and 0.4, the first drawn from
// items codes past ingestItemBase.
func writerDist(r *rand.Rand, items int) uda.UDA {
	it := uint32(ingestItemBase + r.Intn(items))
	return uda.MustNew(uda.Pair{Item: it, Prob: 0.6}, uda.Pair{Item: it + 1, Prob: 0.4})
}

// planWrites draws total ops in batches of ingestBatch: half inserts, a
// quarter updates and a quarter deletes of live writer tuples, each tuple
// touched at most once per batch. The mix is an assumption (ucatload
// only inserts). Insert ids start at firstTID.
func planWrites(seed int64, total int, firstTID uint32) (*writerPlan, error) {
	r := rand.New(rand.NewSource(seed ^ 0x1a9e57))
	p := &writerPlan{live: map[uint32]uda.UDA{}}
	var ids []uint32 // live writer tuple ids, for drawing targets
	next := firstTID
	for sent := 0; sent < total; sent += ingestBatch {
		n := min(ingestBatch, total-sent)
		var ops []server.IngestOp
		var recs []wal.Record
		used := map[uint32]bool{}
		for len(ops) < n {
			x := r.Float64()
			if len(ids) < 2*n || x < 0.5 {
				u := writerDist(r, ingestItems)
				ops = append(ops, server.IngestOp{Op: "insert", Dist: formatUDA(u)})
				recs = append(recs, wal.Record{Type: wal.TypeInsert, TID: next, Pairs: u.Pairs()})
				p.live[next] = u
				p.inserted = append(p.inserted, u)
				ids = append(ids, next)
				next++
				continue
			}
			i := r.Intn(len(ids))
			tid := ids[i]
			if used[tid] {
				continue
			}
			used[tid] = true
			if x < 0.75 {
				u := writerDist(r, ingestItems)
				ops = append(ops, server.IngestOp{Op: "update", TID: tid, Dist: formatUDA(u)})
				recs = append(recs, wal.Record{Type: wal.TypeUpdate, TID: tid, Pairs: u.Pairs()})
				p.live[tid] = u
			} else {
				ops = append(ops, server.IngestOp{Op: "delete", TID: tid})
				recs = append(recs, wal.Record{Type: wal.TypeDelete, TID: tid})
				delete(p.live, tid)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		}
		body, err := json.Marshal(server.IngestRequest{Ops: ops})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.batches = append(p.batches, recs)
	}
	return p, nil
}

// ingestStats is what the writer saw.
type ingestStats struct {
	acks    []float64 // client-seen ms per batch
	handler []float64 // ServeHTTP ms per batch
	apply   []float64 // the server's elapsed_ns (Live.Apply), in ms
	ops     int64
	wall    time.Duration
}

// write posts the planned batches and checks every ack: durable, strictly
// increasing LSNs, and each op's tuple id the plan's. After each batch it
// hands the reader a token on gate, and it closes gate at the end.
func write(sys *ingestSystem, p *writerPlan, gate chan<- struct{}, rep *report, wp *phaseCount) ingestStats {
	defer close(gate)
	var st ingestStats
	var lastLSN uint64
	start := time.Now()
	for b, body := range p.bodies {
		recs := p.batches[b]
		wp.attempted += int64(len(recs))
		t0 := time.Now()
		rr, err := serve(sys.srv, "/v1/ingest", "application/json", body)
		handler := time.Since(t0)
		var ack server.IngestResponse
		if err == nil {
			err = json.Unmarshal(rr.Body.Bytes(), &ack)
		}
		took := time.Since(t0)
		gate <- struct{}{}
		if err != nil || rr.Code != http.StatusOK {
			wp.failed += int64(len(recs))
			continue
		}
		st.acks = append(st.acks, ms(took))
		st.handler = append(st.handler, ms(handler))
		st.apply = append(st.apply, float64(ack.ElapsedNS)/1e6)
		st.ops += int64(len(recs))
		if !ack.Durable || ack.LSN <= lastLSN || sys.lv.WAL().DurableLSN() < ack.LSN {
			rep.checkf("ingest ack lsn %d (previous %d, durable %v, log durable through %d)",
				ack.LSN, lastLSN, ack.Durable, sys.lv.WAL().DurableLSN())
		}
		lastLSN = ack.LSN
		if len(ack.TIDs) != len(recs) {
			rep.checkf("ingest ack has %d tuple ids for %d ops", len(ack.TIDs), len(recs))
			continue
		}
		for i, rec := range recs {
			if ack.TIDs[i] != rec.TID {
				rep.checkf("op %d of batch %d acknowledged as tuple %d, the plan has %d", i, b, ack.TIDs[i], rec.TID)
			}
		}
	}
	st.wall = time.Since(start)
	return st
}

func runIngest(cfg config) (*report, error) {
	rep := newReport()
	var heap heapPeak
	root, err := os.MkdirTemp(cfg.tmp, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// The benchmark's own data: CRM1, the readers' query specs calibrated
	// against it, the writer's plan and the answer log. The readers' query
	// set is fixed like the dataset; the seed orders it and draws the
	// writer's ops.
	d := dataset.CRM1Like(datasetSeed, cfg.scaled(dataset.CRMSize))
	r := rand.New(rand.NewSource(datasetSeed ^ 0x2ead))
	counts := zipfCounts(ingestRound)
	specs, err := makeSpecs(len(counts), r, d.Tuples, d.Tuples, []string{"petq", "topk"})
	if err != nil {
		return nil, err
	}
	round := schedule(specs, counts, rand.New(rand.NewSource(cfg.seed)))
	plan, err := planWrites(cfg.seed, cfg.scaled(ingestOps), uint32(len(d.Tuples)))
	if err != nil {
		return nil, err
	}
	log := newAnswerLog(specs)
	maxAnswer := len(plan.live)
	for _, sp := range specs {
		maxAnswer = max(maxAnswer, sp.want.k)
	}
	reserveAnswers(maxAnswer)
	heap.setBase()

	var sys *ingestSystem
	var setups, builds []float64
	// Set-up -1 warms the process (heap growth, page faults) and is not
	// counted.
	for i := -1; i < cfg.setupReps(); i++ {
		if sys != nil {
			if err := sys.shutdown(); err != nil {
				return nil, err
			}
			sys = nil
		}
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		t0 := time.Now()
		var build time.Duration
		if sys, build, err = setupIngest(d.Tuples, filepath.Join(root, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		heap.mark()
		if i >= 0 {
			setups = append(setups, took.Seconds())
			builds = append(builds, build.Seconds())
		}
	}
	defer func() { _ = sys.shutdown() }() // only reached early on an error path
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["build_s"] = median(builds)

	// The writer posts its batches while a reader queries the live view,
	// one request per acknowledged batch; those reads are checked, not
	// timed. The timed query phase then reads the live view with the whole
	// overlay in place: read beside the writes, the reader's figures
	// depended on how long the writes happened to take.
	wp, cp, qp := rep.phase("ingest"), rep.phase("query-during-ingest"), rep.phase("query")
	dc0 := sys.lv.Base().DecodeCache().Stats()
	gate := make(chan struct{}, len(plan.bodies))
	beside := make(chan struct{})
	go func() {
		defer close(beside)
		drive(sys.srv, gatedDispenser(round, gate), 1, log, cp)
	}()
	wst := write(sys, plan, gate, rep, wp)
	<-beside
	heap.mark()
	reads := ingestReads(cfg)
	qst := drive(sys.srv, countedDispenser(round, reads), 1, log, qp)
	qst.metrics(rep.metrics)
	rep.metrics["ios_per_query"] = float64(qst.ios) / float64(len(qst.lat))
	rep.metrics["ingest_ops_s"] = float64(wst.ops) / wst.wall.Seconds()
	rep.metrics["ack_ms_p50"] = percentile(append([]float64(nil), wst.acks...), 0.50)
	rep.metrics["ack_ms_p90"] = percentile(append([]float64(nil), wst.acks...), 0.90)
	rep.metrics["server.ingest_ms_p50"] = percentile(wst.handler, 0.50)
	rep.metrics["core.live_apply_ms"] = percentile(wst.apply, 0.50)
	rep.metrics["core.live_query_us"] = 1000 * median(qst.exec)
	qst = servedStats{} // the samples are the benchmark's, not the program's heap
	heap.mark()

	if cfg.trace {
		rep.metrics["dcache.hit_rate"] = cacheHitRate(dc0, sys.lv.Base().DecodeCache().Stats())
		rep.metrics["server.queue_wait_ms_p50"] = sys.reg.Histogram("ucat_serve_queue_wait_ns").Snapshot().P50 / 1e6
		view := sys.lv.View()
		engine := func(v pager.View) core.QueryEngine { return view.Bind(view.Base().Reader(v)) }
		counted := func() *dispenser { return countedDispenser(round, reads/2) }
		replayLayers(counted, engine, view.Base().Pool().Store(), log, rep)
		answerUDA(rep, specs, log, d.Tuples)
	}
	log.verify(rep, "live", d.Tuples)

	ws := sys.lv.WAL().Stats()
	if ws.Fsyncs > 0 && ws.Records > 0 {
		rep.metrics["wal.ops_per_fsync"] = float64(ws.Records) / float64(ws.Fsyncs)
		rep.metrics["wal.bytes_per_op"] = float64(ws.Bytes) / float64(ws.Records)
	}
	if err := sys.shutdown(); err != nil {
		return nil, err
	}
	if cfg.trace {
		var n int
		t0 := time.Now()
		if _, err := wal.Replay(sys.opts.Dir, 0, func(uint64, wal.Record) error { n++; return nil }); err != nil {
			return nil, err
		}
		rep.metrics["wal.replay_ms"] = ms(time.Since(t0))
		if int64(n) != wst.ops {
			rep.checkf("the WAL replays %d records, %d ops were acknowledged", n, wst.ops)
		}
	}

	lv, err := recoverLive(sys.opts, rep)
	if err != nil {
		return nil, err
	}
	defer func() { _ = lv.Close() }() // after the fold nothing is appended
	checkRecovered(lv, d.Tuples, plan, rep)

	t0 := time.Now()
	if err := lv.Checkpoint(); err != nil {
		return nil, err
	}
	rep.metrics["checkpoint_s"] = time.Since(t0).Seconds()
	heap.mark()
	folded := lv.Base()
	rep.metrics["store_mb"] = mb(folded.Pool().Store().Bytes())
	if err := checkFolded(cfg, lv, d.Tuples, plan, specs, rep); err != nil {
		return nil, err
	}
	if err := foldWide(root, sys.opts.OriginPath, len(d.Tuples), rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := ingestLayers(root, d.Tuples, folded, plan, rep); err != nil {
			return nil, err
		}
	}
	heap.mark()
	rep.metrics["peak_heap_mb"] = heap.mb()
	return rep, nil
}

// foldWide runs the ucatload -ingest device as it is, with the writer's
// items spread over wideItems codes: a fixed set of inserts (the same in
// every run, whatever the seed) into a fresh Live over the origin
// snapshot, then one Checkpoint. On this program the fold fails: the
// PDR-tree cannot write a new root whose children's boundaries span about
// a thousand items uncompressed ("pdrtree: new root does not fit"), and
// ucatd's automatic fold drops that error. The failure is counted as one
// failed operation, and the live view must still hold every tuple.
func foldWide(root, origin string, baseLen int, rep *report) error {
	fp := rep.phase("fold-wide")
	lv, err := core.OpenLive(core.LiveOptions{
		Dir:        filepath.Join(root, "wide-wal"),
		WAL:        wal.Options{Fsync: wal.FsyncGroup},
		OriginPath: origin,
	})
	if err != nil {
		return err
	}
	defer func() { _ = lv.Close() }() // the fold's outcome is what is reported
	r := rand.New(rand.NewSource(datasetSeed ^ 0x31de))
	applied := 0
	for sent := 0; sent < wideOps; sent += wideBatch {
		ops := make([]core.Op, wideBatch)
		for i := range ops {
			ops[i] = core.Op{Kind: wal.TypeInsert, U: writerDist(r, wideItems)}
		}
		fp.attempted += int64(len(ops))
		if _, _, err := lv.Apply(ops); err != nil {
			fp.failed += int64(len(ops))
			continue
		}
		applied += len(ops)
	}
	fp.attempted++
	if err := lv.Checkpoint(); err != nil {
		fp.failed++
		fp.note = "known fault, left standing: " + err.Error()
	}
	if got, want := lv.View().Len(), baseLen+applied; got != want {
		rep.checkf("after the wide fold the live view holds %d tuples, want %d", got, want)
	}
	return nil
}

// recoverLive reopens the Live from its directory several times; recover_s
// is the median. Every reopen but the last is closed again.
func recoverLive(opts core.LiveOptions, rep *report) (*core.Live, error) {
	var times []float64
	var lv *core.Live
	for i := 0; i < recoverReps; i++ {
		if lv != nil {
			if err := lv.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if lv, err = core.OpenLive(opts); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.metrics["recover_s"] = median(times)
	return lv, nil
}

// checkRecovered compares the recovered live view with the model: the base
// tuples plus the live writer tuples, each with its latest distribution.
func checkRecovered(lv *core.Live, base []uda.UDA, m *writerPlan, rep *report) {
	v := lv.View()
	if want := len(base) + len(m.live); v.Len() != want {
		rep.checkf("recovered view holds %d tuples, the model %d", v.Len(), want)
	}
	seen := 0
	err := v.Scan(func(tid uint32, u uda.UDA) bool {
		seen++
		var want uda.UDA
		if int(tid) < len(base) {
			want = base[tid]
		} else if w, ok := m.live[tid]; ok {
			want = w
		} else {
			rep.checkf("recovered view holds tuple %d, which the model does not", tid)
			return true
		}
		if !samePairs(u, want) {
			rep.checkf("recovered tuple %d differs from the model", tid)
		}
		return true
	})
	rep.check("scanning the recovered view", err)
	if want := len(base) + len(m.live); seen != want {
		rep.checkf("recovered view scans %d tuples, the model holds %d", seen, want)
	}
}

// samePairs compares two distributions bit for bit.
func samePairs(a, b uda.UDA) bool {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].Item != pb[i].Item || math.Float64bits(pa[i].Prob) != math.Float64bits(pb[i].Prob) {
			return false
		}
	}
	return true
}

// checkFolded runs the readers' specs and specs drawn from the writer's
// own tuples against the folded relation and compares them with the
// oracle over the model.
func checkFolded(cfg config, lv *core.Live, base []uda.UDA, m *writerPlan, readSpecs []*querySpec, rep *report) error {
	maxTID := uint32(len(base))
	for tid := range m.live {
		if tid >= maxTID {
			maxTID = tid + 1
		}
	}
	all := make([]uda.UDA, maxTID)
	copy(all, base)
	tids := make([]uint32, 0, len(m.live))
	for tid, u := range m.live {
		all[tid] = u
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	var queries []uda.UDA
	for _, tid := range tids {
		queries = append(queries, m.live[tid])
	}
	specs := readSpecs
	if len(queries) > 0 {
		r := rand.New(rand.NewSource(cfg.seed ^ 0xf01d))
		ws, err := makeSpecs(min(16, len(queries)), r, queries, all, []string{"petq", "topk"})
		if err != nil {
			return err
		}
		specs = append(append([]*querySpec(nil), readSpecs...), ws...)
	}
	fp := rep.phase("fold-check")
	eng := lv.View().Reader()
	for _, sp := range specs {
		// The readers' specs were calibrated over the base alone; the
		// writer's tuples share no item with them and add nothing.
		fp.attempted++
		var ms []core.Match
		var err error
		if sp.kind == "topk" {
			ms, err = eng.TopK(sp.q, sp.k)
		} else {
			ms, err = eng.PETQ(sp.q, sp.tau)
		}
		if err != nil {
			fp.failed++
			continue
		}
		rep.check("folded "+sp.kind, sp.want.check(toAnswers(ms), tupleProb(sp.q, 0, all)))
	}
	return nil
}

// ingestLayers times the layers behind the fold and the recovery by
// calling them directly: Clone, Save and Load of the folded relation; a
// stand-alone PDR-tree bulk-loaded from the base tuples and then given the
// writer's inserts; and a separate WAL taking the acknowledged batches with
// the same group-commit settings.
func ingestLayers(root string, base []uda.UDA, folded *core.Relation, m *writerPlan, rep *report) error {
	t0 := time.Now()
	if _, err := folded.Clone(); err != nil {
		return err
	}
	rep.metrics["core.clone_s"] = time.Since(t0).Seconds()
	path := filepath.Join(root, "folded.ucat")
	t0 = time.Now()
	if err := folded.SaveFile(path); err != nil {
		return err
	}
	rep.metrics["core.save_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := core.LoadRelationFile(path); err != nil {
		return err
	}
	rep.metrics["core.load_s"] = time.Since(t0).Seconds()

	tuples := make([]pdrtree.Tuple, len(base))
	for i, u := range base {
		tuples[i] = pdrtree.Tuple{TID: uint32(i), Value: u}
	}
	t0 = time.Now()
	tree, err := pdrtree.BulkLoad(pager.NewPool(pager.NewStore(), buildFrames), pdrtree.Config{}, tuples)
	if err != nil {
		return err
	}
	rep.metrics["pdrtree.bulkload_s"] = time.Since(t0).Seconds()
	if n := len(m.inserted); n > 0 {
		var insertErr error
		var took time.Duration
		objs, _ := allocDelta(func() {
			t1 := time.Now()
			for i, u := range m.inserted {
				if insertErr = tree.Insert(uint32(len(base)+i), u); insertErr != nil {
					return
				}
			}
			took = time.Since(t1)
		})
		if insertErr != nil {
			return insertErr
		}
		rep.metrics["pdrtree.insert_us"] = float64(took.Nanoseconds()) / 1e3 / float64(n)
		rep.metrics["pdrtree.insert_allocs"] = float64(objs) / float64(n)
	}

	dir := filepath.Join(root, "wal-layer")
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncGroup}, 1)
	if err != nil {
		return err
	}
	var appendT, syncT time.Duration
	for _, recs := range m.batches {
		t1 := time.Now()
		_, last, err := log.Append(recs)
		if err != nil {
			_ = log.Close() // the append error is the one to report
			return err
		}
		t2 := time.Now()
		if err := log.Sync(last); err != nil {
			_ = log.Close() // the sync error is the one to report
			return err
		}
		appendT += t2.Sub(t1)
		syncT += time.Since(t2)
	}
	if err := log.Close(); err != nil {
		return err
	}
	if n := len(m.batches); n > 0 {
		rep.metrics["wal.append_us"] = float64(appendT.Nanoseconds()) / 1e3 / float64(n)
		rep.metrics["wal.sync_ms"] = ms(syncT) / float64(n)
	}
	return nil
}
