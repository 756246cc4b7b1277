package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tenways/internal/core"
	"tenways/internal/obs"
	"tenways/internal/report"
	"tenways/internal/serve"
)

// daemonRate is the offered load in requests per second: below the knee
// (about 400 req/s on two cores when this benchmark was written) but high
// enough that lab runs for misses share the cores with the hit path.
const daemonRate = 200.0

// daemonIDs are the experiments the daemon workload requests, in Zipf rank
// order: the deterministic experiments whose quick run took at most 35 ms
// when this benchmark was written, in registry order, plus F29, whose
// misses run the pdes engine next to the request path.
var daemonIDs = []string{
	"T2", "T4", "T5", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
	"F10", "F11", "F13", "F14", "T6", "T7", "F15", "F16", "F17", "F18", "F19",
	"F21", "T8", "F22", "F23", "F24", "F25", "F26", "T12", "F29",
}

const (
	zipfS     = 1.2  // Zipf exponent over daemonIDs
	poolSeeds = 4    // seeds whose results are warmed into the cache
	freshFrac = 0.10 // share of requests with a never-seen seed
)

// measuredCols names, by experiment, the host-timed table columns, which
// differ between any two runs and are left out of the response check.
// Only F29 among daemonIDs has any.
var measuredCols = map[string]map[string]bool{
	"F29": {"wall ms": true, "Mev/s": true, "speedup": true},
}

// goodTarget is the latency within which a request counts toward the
// daemon's goodput (ops_per_s): about seven times the median at 200 req/s on
// two cores, where the latency distribution is flat between the hits and
// the misses, so the count is steady and a slower host still lands there.
const goodTarget = 5 * time.Millisecond

// request is one scheduled GET /v1/run?quick=true.
type request struct {
	due   time.Duration // offset from the start of the open loop
	id    string
	seed  uint64
	fresh bool
}

// hashRand is a counter-based generator: the k-th draw is a hash of the
// seed and k, so a schedule depends on nothing but its seed.
type hashRand struct{ s uint64 }

func (r *hashRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// poolSeed returns the k-th warmed lab seed of a workload seed.
func poolSeed(seed uint64, k int) uint64 { return seed*poolSeeds + uint64(k) + 1 }

// schedule builds the open-loop request list for rate over d. The mix is
// fixed by quota: each id gets its Zipf share of the n requests, and
// freshFrac of each id's requests carry never-seen seeds, both rounded by
// largest remainder. Seeds therefore change the order, timing and lab seeds
// of the requests but not how many of each kind there are. Inter-arrival
// gaps are exponential, scaled so the last request is due at d.
func schedule(seed uint64, rate float64, d time.Duration) []request {
	n := int(rate * d.Seconds())
	weights := make([]float64, len(daemonIDs))
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -zipfS)
	}
	counts := quota(n, weights)
	shares := make([]float64, len(counts))
	for i, c := range counts {
		shares[i] = float64(c)
	}
	fresh := quota(int(float64(n)*freshFrac), shares)
	pool := make([]request, 0, n)
	novel := make([]request, 0, n)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			if k < fresh[i] {
				novel = append(novel, request{id: daemonIDs[i], seed: 1<<40 | seed<<20 | uint64(len(novel)), fresh: true})
			} else {
				pool = append(pool, request{id: daemonIDs[i], seed: poolSeed(seed, k%poolSeeds)})
			}
		}
	}
	rng := hashRand{s: mix(seed)}
	shuffle(pool, &rng)
	shuffle(novel, &rng)
	// Fresh request k goes to position (k+1/2)·n/f, so the misses, and the
	// lab runs behind them, are spread evenly instead of clustering by chance.
	reqs := make([]request, 0, n)
	for i, k := 0, 0; i < n; i++ {
		if k < len(novel) && i == (2*k+1)*n/(2*len(novel)) {
			reqs = append(reqs, novel[k])
			k++
		} else {
			reqs = append(reqs, pool[i-k])
		}
	}
	var at float64
	gaps := make([]float64, n)
	for i := range gaps {
		at += expDraw(rng.next())
		gaps[i] = at
	}
	for i := range reqs {
		reqs[i].due = time.Duration(gaps[i] / at * float64(d))
	}
	return reqs
}

// quota splits n into integer parts proportional to weights by the
// largest-remainder method.
func quota(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	parts := make([]int, len(weights))
	rems := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		parts[i] = int(exact)
		rems[i] = exact - float64(parts[i])
		left -= parts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		parts[best]++
		rems[best] = -1
	}
	return parts
}

func shuffle(reqs []request, rng *hashRand) {
	for i := len(reqs) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
}

// record is one completed request as the client saw it.
type record struct {
	lat, done      time.Duration
	status         int
	body           []byte // 200 response body, decoded after the timed loop
	cached, merged bool
	digest         string // masked output hash, set by checkDaemon
	err            error
}

// daemon is one in-process server under test with its loopback client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	lab    *timedLab
}

// startDaemon serves serve.New(lab, serve.Options{}) — the shipped
// defaults — on a loopback port. Under tracing the handler is wrapped in a
// span-recording middleware and the lab in a timing decorator.
func startDaemon(tr *tracer, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{lab: &timedLab{lab: core.NewLab(), tr: tr}, served: make(chan error, 1)}
	var lab serve.Lab = d.lab.lab
	if tr != nil {
		lab = d.lab
	}
	d.srv = serve.New(lab, serve.Options{})
	d.hs = &http.Server{Handler: middleware(tr, d.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.client.CloseIdleConnections()
	if served := <-d.served; !errors.Is(served, http.ErrServerClosed) {
		return served
	}
	return err
}

// warm requests every (id, pool seed) once, so timed requests for pool
// seeds hit the cache. It sends them one at a time: serial work times
// steadily on a shared host where work that keeps every core busy does not.
func (d *daemon) warm(ctx context.Context, seed uint64) error {
	reqs := make([]request, 0, len(daemonIDs)*poolSeeds)
	for _, id := range daemonIDs {
		for k := 0; k < poolSeeds; k++ {
			reqs = append(reqs, request{id: id, seed: poolSeed(seed, k)})
		}
	}
	recs, _ := d.fire(ctx, reqs, 1, nil)
	for i, r := range recs {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm %s seed %d: status %d: %v", reqs[i].id, reqs[i].seed, r.status, r.err)
		}
	}
	return nil
}

// fire issues reqs over conns client goroutines. A dispatcher hands each
// request out at its due time (all at once when every due is 0); latency
// runs from the due time, so a stalled server or a busy client also
// delays the requests queued behind it. The second result is how long
// after its due time the dispatcher handed each request out.
func (d *daemon) fire(ctx context.Context, reqs []request, conns int, tr *tracer) ([]record, []time.Duration) {
	recs := make([]record, len(reqs))
	lates := make([]time.Duration, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < conns; lane++ {
		wg.Add(1)
		go func(lane int64) {
			defer wg.Done()
			for i := range next {
				recs[i] = d.get(ctx, reqs[i], uint64(i+1), lane, tr, start)
			}
		}(int64(lane))
	}
	timer := time.NewTimer(time.Hour) // armed, not fired: Reset needs no drain
	defer timer.Stop()
	for i, r := range reqs {
		if wait := r.due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		lates[i] = time.Since(start) - r.due
		select {
		case next <- i:
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	return recs, lates
}

// get sends one request and checks the transport-level outcome.
func (d *daemon) get(ctx context.Context, r request, idx uint64, lane int64, tr *tracer, start time.Time) record {
	sp := tr.begin("client GET /v1/run "+r.id, 0, idx, lane)
	defer sp.end()
	url := d.base + "/v1/run?quick=true&id=" + r.id + "&seed=" + strconv.FormatUint(r.seed, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return record{err: err}
	}
	if tr != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatUint(idx, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatUint(sp.s.ID, 10))
		req.Header.Set("X-Bench-Lane", strconv.FormatInt(lane, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return record{err: err, lat: time.Since(start) - r.due}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	rec := record{status: resp.StatusCode, err: err, body: body, done: time.Since(start)}
	rec.lat = rec.done - r.due
	return rec
}

// decode parses a 200 response body for experiment id into the record's
// cache flags and output digest, and drops the body.
func (r *record) decode(id string) error {
	var got struct {
		Table     *report.Table  `json:"table"`
		Figure    *report.Figure `json:"figure"`
		Cached    bool           `json:"cached"`
		Coalesced bool           `json:"coalesced"`
	}
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	r.body = nil
	r.cached, r.merged = got.Cached, got.Coalesced
	var err error
	r.digest, err = maskedDigest(id, core.Output{Table: got.Table, Figure: got.Figure})
	return err
}

// maskedDigest hashes experiment id's output with its host-timed table
// columns blanked.
func maskedDigest(id string, o core.Output) (string, error) {
	if t, cols := o.Table, measuredCols[id]; t != nil && cols != nil {
		masked := *t
		masked.Rows = make([][]string, len(t.Rows))
		for i, row := range t.Rows {
			masked.Rows[i] = append([]string(nil), row...)
			for c := range masked.Rows[i] {
				if c < len(t.Headers) && cols[t.Headers[c]] {
					masked.Rows[i][c] = ""
				}
			}
		}
		o.Table = &masked
	}
	return outputHash(o)
}

// middleware records the handler span of a traced request, parented to the
// client span named in its headers, and threads the span through
// r.Context() so the lab decorator can parent the run under it.
func middleware(tr *tracer, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
		lane, _ := strconv.ParseInt(r.Header.Get("X-Bench-Lane"), 10, 64)
		sp := tr.begin("serve.handler", parent, req, lane)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{req: req, id: sp.s.ID, lane: lane})))
		sp.end()
	})
}

// timedLab decorates the daemon's lab: every RunContext becomes a span
// under the handler span found in ctx, and is counted.
type timedLab struct {
	lab  *core.Lab
	tr   *tracer
	runs atomic.Int64
}

func (l *timedLab) Experiments() []core.Experiment { return l.lab.Experiments() }

func (l *timedLab) Get(id string) (core.Experiment, error) { return l.lab.Get(id) }

func (l *timedLab) RunContext(ctx context.Context, id string, cfg core.Config) (core.Output, error) {
	ref := spanFrom(ctx)
	sp := l.tr.begin("Lab.RunContext "+id, ref.id, ref.req, ref.lane)
	defer sp.end()
	l.runs.Add(1)
	return l.lab.RunContext(ctx, id, cfg)
}

// setUpDaemons times the daemon's set-up, starting a server and warming
// it, setupReps times; it stops every server but the last, which it
// returns running.
func setUpDaemons(ctx context.Context, tr *tracer, seed uint64, conns int) (*daemon, []float64, error) {
	var d *daemon
	_, times, err := timeSetup(func() (struct{}, error) {
		if d != nil {
			if err := d.stop(); err != nil {
				return struct{}{}, err
			}
		}
		var err error
		if d, err = startDaemon(tr, conns); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, d.warm(ctx, seed)
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, nil, err
	}
	return d, times, nil
}

// runDaemon is the daemon-zipf workload: an open loop at daemonRate of
// GET /v1/run?quick=true against the in-process daemon, over at most
// GOMAXPROCS client connections, for the measurement time. An operation is
// one request; ops_per_s is the goodput, the requests answered correctly
// within goodTarget per second. Every 200 response's output must match a
// direct Lab.Run of the same (id, seed, quick); a transport error, a
// non-2xx status or a mismatch fails the request.
func runDaemon(ctx context.Context, p params) (*outcome, error) {
	tr := p.tr
	conns := runtime.GOMAXPROCS(0)
	out := newOutcome()
	d, setup, err := setUpDaemons(ctx, tr, p.seed, conns)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	reqs := schedule(p.seed, daemonRate, p.seconds)
	runs0 := d.lab.runs.Load()
	waits0 := d.srv.Metrics().Snapshot().Histograms["serve.queue_wait_seconds"]
	spans0 := len(tr.finished())
	alloc0 := allocBytes()
	recs, lates := d.fire(ctx, reqs, conns, tr)
	alloc := allocBytes() - alloc0
	waits1 := d.srv.Metrics().Snapshot().Histograms["serve.queue_wait_seconds"]
	spare, after, err := setUpDaemons(ctx, nil, p.seed, conns)
	if err != nil {
		return nil, err
	}
	if err := spare.stop(); err != nil {
		return nil, err
	}
	out.values["setup_s"] = median(append(setup, after...))

	if err := checkDaemon(reqs, recs, out); err != nil {
		return nil, err
	}
	lats := make([]float64, 0, len(recs))
	var good int
	last := p.seconds
	for _, r := range recs {
		if r.err != nil || r.status != http.StatusOK {
			lats = append(lats, math.Inf(1))
			continue
		}
		if r.lat <= goodTarget {
			good++
		}
		lats = append(lats, ms(r.lat))
		last = max(last, r.done)
	}
	lat := summarize(lats)
	lateMS := make([]float64, 0, len(lates))
	for _, l := range lates {
		lateMS = append(lateMS, ms(l))
	}
	late := summarize(lateMS)
	out.values["alloc_mb"] = float64(alloc) / 1e6 / float64(len(reqs))
	out.values["ops_per_s"] = perSecond(float64(good), last)
	out.latency(lat)
	out.context["rate"] = fmt.Sprint(daemonRate)
	out.context["good_target_ms"] = fmt.Sprint(ms(goodTarget))
	out.context["conns"] = fmt.Sprint(conns)
	out.context["gen_late_tail_ms"] = fmt.Sprint(late.tail)
	if tr != nil {
		daemonLayers(out, reqs, recs, tr.finished()[spans0:], d.lab.runs.Load()-runs0, waits0, waits1)
		out.values["gen.late_tail_ms"] = late.tail
	}
	return out, nil
}

// checkDaemon counts attempted and failed requests: every 200 response's
// output must equal a direct quick Lab.Run of its (id, seed), computed
// once per pair after the timed loop. A response that does not decode or
// does not match gets its err set, so it also counts as a failed request
// in the latency figures.
func checkDaemon(reqs []request, recs []record, out *outcome) error {
	lab := core.NewLab()
	want := make(map[request]string)
	for i := range recs {
		r := &recs[i]
		out.attempted++
		if r.err == nil && r.status == http.StatusOK {
			r.err = r.decode(reqs[i].id)
		}
		if r.err != nil || r.status != http.StatusOK {
			out.failed++
			continue
		}
		key := request{id: reqs[i].id, seed: reqs[i].seed}
		digest, ok := want[key]
		if !ok {
			o, err := lab.Run(key.id, core.Config{Quick: true, Seed: key.seed})
			if err != nil {
				return fmt.Errorf("reference run %s seed %d: %w", key.id, key.seed, err)
			}
			if digest, err = maskedDigest(key.id, o); err != nil {
				return err
			}
			want[key] = digest
		}
		if r.digest != digest {
			out.failed++
			r.err = fmt.Errorf("%s seed %d: response differs from a direct Lab.Run", key.id, key.seed)
			out.context["error."+key.id] = r.err.Error()
		}
	}
	return nil
}

// daemonLayers fills the serve, cache, lab and obs per-layer metrics of a
// traced daemon run.
func daemonLayers(out *outcome, reqs []request, recs []record, spans []span, runs int64, w0, w1 obs.HistSnapshot) {
	var hits, misses []float64
	var coalesced, rejected float64
	for _, r := range recs {
		switch {
		case r.status == http.StatusTooManyRequests:
			rejected++
		case r.status == http.StatusOK && r.cached:
			hits = append(hits, ms(r.lat))
		case r.status == http.StatusOK:
			misses = append(misses, ms(r.lat))
		}
		if r.merged {
			coalesced++
		}
	}
	hit, miss := summarize(hits), summarize(misses)
	v := out.values
	v["serve.hit_frac"] = float64(len(hits)) / float64(len(reqs))
	v["serve.coalesced"] = coalesced
	v["serve.rejected_429"] = rejected
	v["serve.hit_p50_ms"], v["serve.hit_tail_ms"] = hit.p50, hit.tail
	v["serve.miss_p50_ms"], v["serve.miss_tail_ms"] = miss.p50, miss.tail
	v["lab.runs"] = float64(runs)
	if len(misses) > 0 {
		v["lab.runs_per_miss"] = float64(runs) / float64(len(misses))
	}
	labRuns := make([]float64, 0, len(spans))
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "Lab.RunContext ") {
			labRuns = append(labRuns, ms(s.Finish-s.Start))
		}
	}
	run := summarize(labRuns)
	v["lab.run_p50_ms"], v["lab.run_tail_ms"] = run.p50, run.tail
	v["serve.self_p50_ms"] = median(selfTimes(spans, "serve.handler"))
	v["serve.queue_wait_tail_ms"] = histTail(histDelta(w0, w1))
}

// histDelta returns the bucket bounds and counts observed between two
// snapshots of one histogram.
func histDelta(before, after obs.HistSnapshot) ([]float64, []uint64) {
	prev := make(map[float64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Le] = b.Count
	}
	les := make([]float64, 0, len(after.Buckets))
	counts := make([]uint64, 0, len(after.Buckets))
	for _, b := range after.Buckets {
		les = append(les, b.Le)
		counts = append(counts, b.Count-prev[b.Le])
	}
	return les, counts
}
