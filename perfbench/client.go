package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ucat/internal/server"
	"ucat/internal/uda"
	"ucat/internal/wire"
)

// The served workloads drive the server through its http.Handler in the
// same process: no sockets, so the numbers measure the program and not
// the loopback stack.

// querySpec is one distinct query the clients send, calibrated against
// the oracle before the timed phase.
type querySpec struct {
	kind string // petq | topk | window
	q    uda.UDA
	tau  float64
	k    int
	c    uint32
	want expected // the oracle's answer
}

// specKinds is the query mix: equal shares of the three batchable kinds,
// as `ucatload -kinds petq,topk,window` draws them.
var specKinds = []string{"petq", "topk", "window"}

// specSelectivities are the answer sizes the specs are calibrated to, as
// shares of the relation: the paper's selectivities (exp.Selectivities)
// but its 10 %, whose answers of 10,000 tuples no served client asks for.
var specSelectivities = []float64{0.0001, 0.001, 0.01}

// makeSpecs draws n query specs from queries (see stratified) and
// calibrates each against tuples, on every CPU (the oracle's work is not
// measured).
func makeSpecs(n int, r *rand.Rand, queries []uda.UDA, tuples []uda.UDA, kinds []string) ([]*querySpec, error) {
	specs := make([]*querySpec, n)
	for i, q := range stratified(queries, n, r) {
		specs[i] = &querySpec{kind: kinds[i%len(kinds)], q: q}
	}
	err := parallel(n, func(i int) error {
		sel := specSelectivities[(i/len(kinds))%len(specSelectivities)]
		if err := specs[i].calibrate(tuples, max(int(sel*float64(len(tuples))+0.5), 1)); err != nil {
			return fmt.Errorf("query spec %d: %w", i, err)
		}
		return nil
	})
	return specs, err
}

// parallel runs fn(0..n-1) on every CPU and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n) // holds every index, so filling it never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stratified draws n queries from the candidates, one from each of n
// equal strata of the candidates ordered by concentration (Σ p², the
// query's equality probability with itself), and returns them in a fixed
// interleaved order of strata. How much of an index a query reads depends
// mostly on how concentrated it is: a flat query prunes little. Every seed
// then gets queries of the same range of costs in the same positions;
// with a plain random draw a run's figures depended on whether its
// queries, and its hottest ones, happened to be flat.
func stratified(cands []uda.UDA, n int, r *rand.Rand) []uda.UDA {
	conc := make([]float64, len(cands))
	order := make([]int, len(cands))
	for i, u := range cands {
		order[i] = i
		for _, p := range u.Pairs() {
			conc[i] += p.Prob * p.Prob
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return conc[order[a]] > conc[order[b]] })
	step := strideFor(n)
	out := make([]uda.UDA, n)
	for i := range out {
		s := (i * step) % n
		lo, hi := s*len(cands)/n, (s+1)*len(cands)/n
		if hi <= lo {
			hi = lo + 1
		}
		out[i] = cands[order[lo+r.Intn(hi-lo)]]
	}
	return out
}

// strideFor returns a step coprime with n near n·0.618, so that
// consecutive specs (the hottest ranks) come from far-apart strata.
func strideFor(n int) int {
	for s := int(float64(n)*0.618) | 1; s > 1; s-- {
		if gcd(s, n) == 1 {
			return s
		}
	}
	return 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// calibrate sets the spec's threshold or k for about target answers and
// computes the oracle's answer.
func (sp *querySpec) calibrate(tuples []uda.UDA, target int) error {
	var probs []float64
	if sp.kind == "window" {
		sp.c = 1
		probs = probsFor(tuples, func(t uda.UDA) float64 { return windowProb(sp.q, t, 1) })
	} else {
		probs = probsFor(tuples, func(t uda.UDA) float64 { return eqProb(sp.q, t) })
	}
	var err error
	sp.tau, sp.k, sp.want, err = calibrated(probs, target, sp.kind == "topk")
	return err
}

// The clients send whole rounds of requests. A round holds the specs in a
// seeded order, each as often as a Zipf–Mandelbrot law gives it,
// P(rank r) ∝ (zipfV + r)^−zipfS. For a 768-request round that is about
// 520 distinct specs, the hottest tenth of them taking a quarter of the
// traffic. The law and its parameters are an assumption, not measured
// traffic: the repository records no query log, and ucatload's -hotset
// (8 queries drawn uniformly) keeps every page a run touches in the pool.
// v = 64 flattens the head so that a run's figures do not hang on a few
// queries. Whole rounds make every run's mix the same.
const (
	zipfS = 1.1
	zipfV = 64
)

// zipfCounts splits a round of n requests over the ranks by the
// Zipf–Mandelbrot weights (largest remainder); ranks that get no request
// are cut off.
func zipfCounts(n int) []int {
	w := make([]float64, n)
	var sum float64
	for r := range w {
		w[r] = math.Pow(zipfV+float64(r), -zipfS)
		sum += w[r]
	}
	counts := make([]int, n)
	type rem struct {
		r int
		f float64
	}
	rems := make([]rem, n)
	left := n
	for r := range w {
		x := w[r] / sum * float64(n)
		counts[r] = int(x)
		left -= counts[r]
		rems[r] = rem{r, x - float64(counts[r])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for i := 0; i < left; i++ {
		counts[rems[i].r]++
	}
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// schedule is one round: the spec of each request, in a seeded order.
func schedule(specs []*querySpec, counts []int, r *rand.Rand) []*querySpec {
	var round []*querySpec
	for i, c := range counts {
		for j := 0; j < c; j++ {
			round = append(round, specs[i])
		}
	}
	r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// dispenser hands out the requests of a round, over and over, to
// concurrent clients: whole rounds until a deadline, a fixed count, or one
// request per token received from a gate until the gate is closed.
type dispenser struct {
	mu       sync.Mutex
	round    []*querySpec
	next     int
	stopped  bool
	deadline time.Time     // timed: stop at the first round boundary after it
	limit    int           // counted: stop after this many requests
	gate     chan struct{} // gated: one request per token
}

// newDispenser sends whole rounds for at least d.
func newDispenser(round []*querySpec, d time.Duration) *dispenser {
	return &dispenser{round: round, deadline: time.Now().Add(d)}
}

// countedDispenser sends exactly n requests.
func countedDispenser(round []*querySpec, n int) *dispenser {
	return &dispenser{round: round, limit: n}
}

// gatedDispenser sends one request per token on gate.
func gatedDispenser(round []*querySpec, gate chan struct{}) *dispenser {
	return &dispenser{round: round, gate: gate}
}

// take returns the next request's number and spec; ok is false once the
// run is over.
func (ds *dispenser) take() (n int, sp *querySpec, ok bool) {
	if ds.gate != nil {
		if _, open := <-ds.gate; !open {
			return 0, nil, false
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.stopped {
		return 0, nil, false
	}
	switch {
	case ds.gate != nil:
	case ds.limit > 0:
		ds.stopped = ds.next >= ds.limit
	default:
		ds.stopped = ds.next > 0 && ds.next%len(ds.round) == 0 && time.Now().After(ds.deadline)
	}
	if ds.stopped {
		return 0, nil, false
	}
	n = ds.next
	ds.next++
	return n, ds.round[n%len(ds.round)], true
}

// formatUDA renders a distribution in the item:prob notation with every
// probability's exact digits, so the server parses the very same floats.
func formatUDA(u uda.UDA) string {
	var b strings.Builder
	for i, p := range u.Pairs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(p.Item), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(p.Prob, 'g', -1, 64))
	}
	return b.String()
}

// queryResult is one decoded query response.
type queryResult struct {
	status    int
	matches   []answer
	ios       uint64
	elapsedNS int64
}

// clientTimes are the client-side timings of one request.
type clientTimes struct {
	encode, handler, decode time.Duration
}

// noLimit asks the server for whole answers (its default caps them).
const noLimit = 1 << 30

// queryRequest encodes one query as a /v1/query request in the chosen
// protocol.
func queryRequest(sp *querySpec, binary bool) (*http.Request, error) {
	if binary {
		wk, ok := wire.KindOf(sp.kind)
		if !ok {
			return nil, fmt.Errorf("no wire kind for %q", sp.kind)
		}
		body := wire.AppendRequest(nil, &wire.Request{Kind: wk, Pairs: sp.q.Pairs(),
			Tau: sp.tau, K: sp.k, C: sp.c, Limit: noLimit})
		return newPost("/v1/query", wire.ContentType, body)
	}
	body, err := json.Marshal(server.QueryRequest{Kind: sp.kind, Query: formatUDA(sp.q),
		Tau: sp.tau, K: sp.k, C: sp.c, Limit: noLimit})
	if err != nil {
		return nil, err
	}
	return newPost("/v1/query", "application/json", body)
}

// sendQuery sends one query to h in the chosen protocol.
func sendQuery(h http.Handler, sp *querySpec, binary bool) (queryResult, clientTimes, error) {
	var ct clientTimes
	var res queryResult
	t0 := time.Now()
	req, err := queryRequest(sp, binary)
	if err != nil {
		return res, ct, err
	}
	ct.encode = time.Since(t0)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	ct.handler = time.Since(t0) - ct.encode
	t1 := time.Now()
	res, err = decodeResponse(rr.Code, rr.Body.Bytes(), binary)
	ct.decode = time.Since(t1)
	return res, ct, err
}

// decodeResponse decodes one query response in the given protocol.
func decodeResponse(code int, body []byte, binary bool) (queryResult, error) {
	res := queryResult{status: code}
	if binary {
		ftype, fbody, err := wire.DecodeFrame(body)
		if err != nil {
			return res, err
		}
		if ftype != wire.FrameResponse {
			return res, fmt.Errorf("binary response frame type %d", ftype)
		}
		var wr wire.Response
		if err := wire.DecodeResponse(fbody, &wr); err != nil {
			return res, err
		}
		if wr.Status != 0 && wr.Status != http.StatusOK {
			res.status = wr.Status
			return res, fmt.Errorf("binary query: status %d: %s", wr.Status, wr.Err)
		}
		res.ios, res.elapsedNS = wr.Reads, wr.ElapsedNS
		for _, m := range wr.Matches {
			res.matches = append(res.matches, answer{TID: m.TID, Prob: m.Prob})
		}
		if wr.Truncated || wr.Count != len(wr.Matches) {
			return res, fmt.Errorf("binary answer truncated: %d of %d", len(wr.Matches), wr.Count)
		}
		return res, nil
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return res, err
	}
	if code != http.StatusOK {
		return res, fmt.Errorf("json query: status %d: %s", code, qr.Error)
	}
	if qr.IO != nil {
		res.ios = qr.IO.IOs
	}
	res.elapsedNS = qr.ElapsedNS
	for _, m := range qr.Matches {
		res.matches = append(res.matches, answer{TID: m.TID, Prob: m.Prob})
	}
	if qr.Truncated || qr.Count != len(qr.Matches) {
		return res, fmt.Errorf("json answer truncated: %d of %d", len(qr.Matches), qr.Count)
	}
	return res, nil
}

// newPost builds one POST request to the handler.
func newPost(path, contentType string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return req, nil
}

// serve runs one POST through the handler.
func serve(h http.Handler, path, contentType string, body []byte) (*httptest.ResponseRecorder, error) {
	req, err := newPost(path, contentType, body)
	if err != nil {
		return nil, err
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, nil
}

// fingerprint hashes an answer's tuple ids and probability bits (FNV-1a,
// 64 bits), allocating nothing.
func fingerprint(as []answer) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, a := range as {
		bits := math.Float64bits(a.Prob)
		for i := 0; i < 4; i++ {
			h = (h ^ uint64(byte(a.TID>>(8*i)))) * prime
		}
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(bits>>(8*i)))) * prime
		}
	}
	return h
}

// answerLog keeps, per spec, the first answer the program gave and its
// fingerprint; every later answer to the spec, in either protocol or
// straight from core, must have the same fingerprint. The first answers
// are checked against the oracle after the timed phase, so checking costs
// the timed phase only a hash. The log is sized before the program runs
// (each spec's first answer has room for the oracle's answer size), so it
// does not grow while the program's heap is measured.
type answerLog struct {
	mu        sync.Mutex
	entries   map[*querySpec]*logEntry
	mismatch  int
	firstDiff string
}

type logEntry struct {
	seen  bool
	print uint64
	first []answer
}

func newAnswerLog(specs []*querySpec) *answerLog {
	l := &answerLog{entries: make(map[*querySpec]*logEntry, len(specs))}
	for _, sp := range specs {
		l.entries[sp] = &logEntry{first: make([]answer, 0, sp.want.k)}
	}
	return l
}

// firstAnswer is the first answer the program gave to sp, if any.
func (l *answerLog) firstAnswer(sp *querySpec) []answer { return l.entries[sp].first }

func (l *answerLog) record(sp *querySpec, got []answer, via string) {
	fp := fingerprint(got)
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[sp]
	if !e.seen {
		e.seen, e.print = true, fp
		e.first = append(e.first[:0], got...)
		return
	}
	if fp != e.print {
		l.mismatch++
		if l.firstDiff == "" {
			l.firstDiff = fmt.Sprintf("%s %s answer differs from the first answer to the same query", via, sp.kind)
		}
	}
}

// verify checks every first answer against the oracle over tuples and
// reports any answer that differed from its spec's first.
func (l *answerLog) verify(rep *report, what string, tuples []uda.UDA) {
	for sp, e := range l.entries {
		if e.seen {
			rep.check(what+" "+sp.kind, sp.want.check(e.first, tupleProb(sp.q, sp.c, tuples)))
		}
	}
	if l.mismatch > 0 {
		rep.checkf("%s: %d answers differ from the first answer to the same query (%s)", what, l.mismatch, l.firstDiff)
	}
}
