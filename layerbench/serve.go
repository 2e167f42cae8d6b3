package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"paramra"
	"paramra/internal/cache"
	"paramra/internal/encode"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// serve-mix drives an in-process raserved — serve.New with the cmd/raserved
// defaults, including its 4096-entry verdict cache — over loopback HTTP
// with at most two client connections. Every request carries a 2 s client
// budget, the budget under which the known slow input answers 408. The
// requests are drawn from the seed:
//
//   - cache reads: a corpus entry renamed with cache.Rename, after a
//     warm-up that computed every entry's canonical form once;
//   - cache writes: a generated system (fuzzgen default profile, nothing
//     filtered out), each used once, which runs slice, canonicalize, the
//     cold pipeline and the store. The systems come from one fixed stream,
//     in an order drawn from the seed, so every run writes the same
//     systems and does the same set-up work (see poolSeed);
//   - confirmations: a renamed UNSAFE corpus entry with confirm:true, which
//     runs the ra concrete explorer on every request;
//   - the known slow input fuzzgen.Generate(3020887674441242221), once per
//     run. Its prepass replay runs to the client budget, so the service
//     answers it 408 until the program changes. That answer is expected: it
//     is counted by name (serve.timeouts, and a note in the record), not as
//     a failed request, and a correct verdict for it is accepted too. Any
//     other request that runs out of budget is a failure.
//
// No recorded raserved traffic exists to take the mix from, so its shares
// are assumptions: most requests re-ask a system the service has already
// decided under other names (the cache's purpose), few bring a new one,
// and a quarter ask for an UNSAFE verdict to be confirmed, the one request
// kind that always runs an explorer.
//
// A run has two phases, each started from a collected heap. The closed
// loop sends the mix over one connection, one caller's requests back to
// back, in passes of passRequests requests; it gives pass_cpu_s,
// verdict_cpu_ms (each request's CPU time is its own, as nothing else runs
// meanwhile), alloc_mb and peak_rss_mb. The reference phase sends the mix
// open loop over both connections at half the closed loop's throughput,
// each latency timed from its due time — first without the slow input,
// then with it, so the slow input's timeout and what it does to its
// neighbours show in the server's figures. Its latencies go to the record:
// on a 2-vCPU VM whose other guests took 1–15% of the cores (steal), the
// reference-phase p50 moved by 45% between runs, too much for a bound.
const (
	// Every block of mixBlock requests holds blockReads reads, blockWrites
	// writes and the rest confirmations (70%, 5%, 25%: assumed, see above),
	// in a seeded order, so each run sends the same mix. Reads and
	// confirmations cycle through their entries in seeded orders.
	mixBlock    = 40
	blockReads  = 28
	blockWrites = 2
	budgetMS    = 2000
	slowSeed    = 3020887674441242221
	// poolSeed seeds the fixed stream of generated systems. A stream drawn
	// from the run's seed varies the work from run to run: on a 2-vCPU VM
	// its Datalog and fixpoint references took 1.1 s on one seed and 6.4 s
	// on another.
	poolSeed = 1
	// The closed loop sends one pass of passRequests requests per
	// secondsPerPass of --seconds; the reference phase refPerSecond requests
	// per second of it, and its slow part slowPerSecond. The counts, not the
	// clock, end each phase, so every run sends the same requests; at 30
	// seconds a run sends 10 passes, 6000 reference requests and 900 more
	// with the slow input, and on a 2-vCPU VM measures for about 20 s.
	passRequests   = 1000
	secondsPerPass = 3
	refPerSecond   = 200
	slowPerSecond  = 30
	// The reference rate is refLoad times the closed loop's throughput, the
	// rate one caller sustains back to back: with two connections on two
	// cores, about a quarter of the service's capacity, whatever that is.
	refLoad = 0.5
	// A generated system is checked against the Datalog backend when its
	// dis-run skeletons number at most refMaxSkeletons, and without an env
	// program against the one concrete instance when it has at most
	// refMaxStates states; beyond either, against the fixpoint with the
	// prepass off (see referenceVerdict).
	refMaxSkeletons = 16
	refMaxStates    = 50_000
)

// mixRequest is one pre-rendered request with its reference answer.
type mixRequest struct {
	kind    string // read, write, confirm, slow
	name    string // corpus entry or generated system
	by      string // a write's reference: datalog, instance or fixpoint
	src     string
	body    []byte
	unsafe  bool
	confirm bool
}

// item names what a request asks, for per-item latency medians: a read
// or a confirmation of one corpus entry, or any write.
func (r mixRequest) item() string {
	if r.kind == "write" {
		return r.kind
	}
	return r.kind + " " + r.name
}

// itemMedians returns the median of each item's samples.
func itemMedians(perItem map[string][]float64) []float64 {
	meds := make([]float64, 0, len(perItem))
	for _, xs := range perItem {
		meds = append(meds, median(xs))
	}
	return meds
}

// mixEnv is the state a set-up produces.
type mixEnv struct {
	ts     *httptest.Server
	client *http.Client
	// passes are the closed loop's passes; ref and slow are the reference
	// phase's two parts, the second with the slow input.
	passes [][]mixRequest
	ref    []mixRequest
	slow   []mixRequest
	// refs counts the generated systems by the reference that checked them.
	refs   map[string]int
	corpus []corpusEntry
}

func (m *mixEnv) close() {
	m.client.CloseIdleConnections()
	m.ts.Close()
}

// serverConfig is the cmd/raserved default configuration.
func serverConfig() serve.Config {
	return serve.Config{CacheSize: 4096}
}

// referenceVerdict decides a generated system by a procedure other than
// the served pipeline's prepass, which decides almost every one of them:
// the Datalog backend (Theorem 4.1) for systems with an env program and at
// most refMaxSkeletons dis-run skeletons, the exhaustive concrete explorer
// of the one instance an env-less system has when it has at most
// refMaxStates states, and otherwise the simplified fixpoint with the
// prepass off. It returns the verdict and the name of the reference used.
func referenceVerdict(sys *lang.System) (unsafe bool, by string, err error) {
	ctx := context.Background()
	if sys.Env == nil {
		r, err := paramra.VerifyInstance(ctx, sys, 0, paramra.Options{MaxStates: refMaxStates, Parallelism: 1})
		if err != nil || r.Complete {
			return r.Unsafe, "instance", err
		}
	} else {
		ps, _, err := encode.AllCtx(ctx, sys, refMaxSkeletons+1)
		if err != nil {
			return false, "", err
		}
		if len(ps) <= refMaxSkeletons {
			r, err := paramra.Verify(ctx, sys, paramra.Options{Datalog: true, Parallelism: 1})
			if err == nil && !r.Complete {
				err = errors.New("incomplete Datalog verdict")
			}
			return r.Unsafe, "datalog", err
		}
	}
	r, err := paramra.Verify(ctx, sys, paramra.Options{Parallelism: 1})
	if err == nil && !r.Complete {
		err = errors.New("incomplete fixpoint verdict")
	}
	return r.Unsafe, "fixpoint", err
}

// freshPool draws n generated systems from rng, distinct from each other
// and from every system in seen, with their reference verdicts. It computes
// `workers` references at a time and counts them in refs by reference.
func freshPool(rng *rand.Rand, n int, seen map[string]bool, refs map[string]int) ([]mixRequest, error) {
	var batch []*lang.System
	for len(batch) < n {
		sys := fuzzgen.Generate(rng.Int63(), fuzzgen.DefaultProfile())
		h := cache.Canonicalize(sys).Hash
		if !seen[h] {
			seen[h] = true
			batch = append(batch, sys)
		}
	}
	type refResult struct {
		unsafe bool
		by     string
		err    error
	}
	res := make([]refResult, len(batch))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				u, by, err := referenceVerdict(batch[i])
				res[i] = refResult{u, by, err}
			}
		}()
	}
	for i := range batch {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make([]mixRequest, len(batch))
	for i, sys := range batch {
		if res[i].err != nil {
			return nil, fmt.Errorf("reference verdict of %s: %w", sys.Name, res[i].err)
		}
		refs[res[i].by]++
		out[i] = mixRequest{kind: "write", name: sys.Name, by: res[i].by, src: lang.Print(sys), unsafe: res[i].unsafe}
	}
	return out, nil
}

// setupMix builds the inputs, checks every generated system against its
// reference, boots the server and warms its cache with every corpus entry.
func setupMix(cfg runConfig) (*mixEnv, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	corpus, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	var unsafeEntries []corpusEntry
	for _, e := range corpus {
		if e.unsafe {
			unsafeEntries = append(unsafeEntries, e)
		}
	}
	seconds := int(cfg.duration.Seconds())
	nPasses := max(1, seconds/secondsPerPass)
	refRequests, slowRequests := max(mixBlock, seconds*refPerSecond), max(mixBlock, seconds*slowPerSecond)
	blocks := func(n int) int { return (n + mixBlock - 1) / mixBlock }
	nFresh := (nPasses*blocks(passRequests) + blocks(refRequests) + blocks(slowRequests)) * blockWrites

	seen := map[string]bool{}
	for _, e := range corpus {
		seen[cache.Canonicalize(e.sys).Hash] = true
	}
	refs := map[string]int{}
	slowSys := fuzzgen.Generate(slowSeed, fuzzgen.DefaultProfile())
	seen[cache.Canonicalize(slowSys).Hash] = true
	slowUnsafe, _, err := referenceVerdict(slowSys)
	if err != nil {
		return nil, fmt.Errorf("the slow input's reference verdict: %w", err)
	}
	pool, err := freshPool(rand.New(rand.NewSource(poolSeed)), nFresh, seen, refs)
	if err != nil {
		return nil, err
	}

	read := func(e corpusEntry) mixRequest {
		return mixRequest{kind: "read", name: e.name, src: lang.Print(cache.Rename(e.sys, rng.Int63())), unsafe: e.unsafe}
	}
	cycle := func(n int) func() int {
		var perm []int
		return func() int {
			if len(perm) == 0 {
				perm = rng.Perm(n)
			}
			i := perm[0]
			perm = perm[1:]
			return i
		}
	}
	nextRead, nextConfirm := cycle(len(corpus)), cycle(len(unsafeEntries))
	var (
		kinds  []string
		writes []mixRequest
	)
	// phase starts a pass or phase of n requests on whole blocks, with the
	// next fixed chunk of the stream as its writes in a seeded order, so
	// every run's pass i writes the same systems.
	phase := func(n int) {
		kinds = nil
		k := blocks(n) * blockWrites
		writes, pool = pool[:k], pool[k:]
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
	}
	draw := func() mixRequest {
		if len(kinds) == 0 {
			for i := 0; i < mixBlock; i++ {
				k := "confirm"
				if i < blockReads {
					k = "read"
				} else if i < blockReads+blockWrites {
					k = "write"
				}
				kinds = append(kinds, k)
			}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		k := kinds[0]
		kinds = kinds[1:]
		switch k {
		case "read":
			return read(corpus[nextRead()])
		case "write":
			r := writes[0]
			writes = writes[1:]
			return r
		default:
			e := unsafeEntries[nextConfirm()]
			return mixRequest{kind: "confirm", name: e.name, src: lang.Print(cache.Rename(e.sys, rng.Int63())), unsafe: true, confirm: true}
		}
	}
	env := &mixEnv{corpus: corpus, refs: refs}
	for i := 0; i < nPasses; i++ {
		pass := make([]mixRequest, passRequests)
		phase(passRequests)
		for j := range pass {
			pass[j] = draw()
		}
		env.passes = append(env.passes, pass)
	}
	phase(refRequests)
	for i := 0; i < refRequests; i++ {
		env.ref = append(env.ref, draw())
	}
	phase(slowRequests)
	for i := 0; i < slowRequests; i++ {
		env.slow = append(env.slow, draw())
	}
	// The slow input replaces the request a quarter into its phase, so the
	// requests that share the cores with it are measured too.
	env.slow[slowRequests/4] = mixRequest{kind: "slow", name: slowSys.Name, src: lang.Print(slowSys), unsafe: slowUnsafe}
	for _, list := range append([][]mixRequest{env.ref, env.slow}, env.passes...) {
		for i := range list {
			if list[i].body, err = requestBody(list[i]); err != nil {
				return nil, err
			}
		}
	}

	env.ts = httptest.NewServer(serve.New(serverConfig()).Handler())
	env.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	// Warm-up: each corpus entry's canonical form is computed once, so the
	// renamed copies in the mix are cache reads.
	for _, e := range corpus {
		body, err := requestBody(mixRequest{src: e.src})
		if err != nil {
			env.close()
			return nil, err
		}
		o := env.send(context.Background(), mixRequest{name: e.name, body: body, unsafe: e.unsafe})
		if o.err != nil || o.wrong != "" {
			env.close()
			return nil, fmt.Errorf("warm-up %s: %v %s", e.name, o.err, o.wrong)
		}
	}
	return env, nil
}

func requestBody(r mixRequest) ([]byte, error) {
	return json.Marshal(serve.VerifyRequest{
		System:  r.src,
		Options: serve.RequestOptions{BudgetMS: budgetMS, Confirm: r.confirm},
	})
}

// outcome is one answered request.
type outcome struct {
	req      mixRequest
	due      time.Time
	sent     time.Time
	done     time.Time
	status   int
	resp     serve.VerifyResponse
	err      error // failure: transport, status, incomplete, unconfirmed
	wrong    string
	cacheHit bool
	cpu      float64 // closed loop only: the process's CPU seconds
}

// send posts one request and classifies the answer.
func (m *mixEnv) send(ctx context.Context, r mixRequest) outcome {
	o := outcome{req: r, sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.ts.URL+"/v1/verify", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client.Do(req)
	if err != nil {
		o.err = err
		o.done = time.Now()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		if err := json.Unmarshal(data, &o.resp); err != nil {
			o.err = err
			break
		}
		res := o.resp.Result
		o.cacheHit = res.CacheHit
		switch {
		case !res.Complete:
			o.err = errors.New("incomplete result")
		case res.Unsafe != r.unsafe:
			o.wrong = fmt.Sprintf("%s (%s): served unsafe=%t, reference unsafe=%t", r.name, r.kind, res.Unsafe, r.unsafe)
		case r.confirm && (o.resp.Confirm == nil || o.resp.Confirm.Error != nil):
			o.wrong = fmt.Sprintf("%s: UNSAFE verdict not confirmed", r.name)
		}
	}
	return o
}

// phase is one open-loop stretch at a fixed rate.
type phase struct {
	out     []outcome
	lagMax  time.Duration
	elapsed time.Duration
}

// openLoop sends reqs at rate, each due at start + i/rate, over at most
// `workers` connections. A request waits for a free connection; its
// latency is counted from its due time.
func (m *mixEnv) openLoop(reqs []mixRequest, rate float64) phase {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, len(reqs)) // holds the whole schedule: the generator never blocks
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := m.send(context.Background(), reqs[j.i])
				o.due = j.due
				out[j.i] = o
			}
		}()
	}
	start := time.Now()
	var lagMax time.Duration
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			// A blocking nanosleep wakes within about 0.1 ms; time.Sleep
			// can wake a millisecond late, which every latency would carry.
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil)
		}
		lagMax = max(lagMax, time.Since(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return phase{out: out, lagMax: lagMax, elapsed: time.Since(start)}
}

// closedLoop sends reqs over one connection, each request when the one
// before it is answered, and takes each request's CPU time: the whole
// process's, client and server, which nothing else shares.
func (m *mixEnv) closedLoop(reqs []mixRequest) phase {
	out := make([]outcome, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		c0 := cpuSeconds()
		o := m.send(context.Background(), r)
		o.cpu = cpuSeconds() - c0
		o.due = o.sent
		out[i] = o
	}
	return phase{out: out, elapsed: time.Since(start)}
}

// latencies returns each request's latency from its due time; a failed or
// wrong request counts as taking at least the whole budget.
func (p phase) latencies() []float64 {
	xs := make([]float64, len(p.out))
	for i, o := range p.out {
		xs[i] = float64(o.done.Sub(o.due)) / 1e6
		if o.err != nil || o.wrong != "" {
			xs[i] = max(xs[i], budgetMS)
		}
	}
	return xs
}

// scrape reads the server's Prometheus exposition.
func (m *mixEnv) scrape() (map[string]*serve.PromFamily, error) {
	resp, err := m.client.Get(m.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return serve.ParsePrometheus(string(data))
}

// histDelta returns the cumulative bucket counts a histogram gained between
// two scrapes, in order of their upper bounds.
func histDelta(before, after map[string]*serve.PromFamily, name string) (bounds, counts []float64) {
	fa, fb := after[name], before[name]
	if fa == nil {
		return nil, nil
	}
	type b struct{ le, n float64 }
	var bs []b
	for k, v := range fa.Samples {
		le, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		x, err := strconv.ParseFloat(le, 64)
		if err != nil {
			x = math.Inf(1)
		}
		prev := 0.0
		if fb != nil {
			prev = fb.Samples[k]
		}
		bs = append(bs, b{x, v - prev})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, x := range bs {
		bounds = append(bounds, x.le)
		counts = append(counts, x.n)
	}
	return bounds, counts
}

// histQuantile estimates a quantile from cumulative log₂ bucket counts,
// interpolating linearly inside the bucket that holds it.
func histQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q * cum[len(cum)-1]
	for i, c := range cum {
		if c >= target {
			lo, below := 0.0, 0.0
			if i > 0 {
				lo, below = bounds[i-1], cum[i-1]
			}
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			if c == below {
				return hi
			}
			return lo + (hi-lo)*(target-below)/(c-below)
		}
	}
	return bounds[len(bounds)-1]
}

func runServe(cfg runConfig, rep *report) error {
	var env *mixEnv
	setups := make([]float64, 0, serveSetups)
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		settle()
		c0 := cpuSeconds()
		var err error
		if env, err = setupMix(cfg); err != nil {
			return err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	defer env.close()
	rep.metric("setup_s", median(setups))

	// The slow input's phase goes last: the memory its replay leaves behind
	// would otherwise be returned to the OS during the next phase.
	settle()
	rps, err := env.closedPhase(rep)
	if err != nil {
		return err
	}
	settle()
	ref, err := env.refPhase(refLoad*rps, rep)
	if err != nil {
		return err
	}
	rep.note("generated systems by reference: %v", env.refs)
	if cfg.trace {
		return traceMix(env, ref, rep)
	}
	return nil
}

// settle starts a phase from a collected heap whose free memory is back
// with the OS, so neither the garbage nor the scavenging of an earlier
// phase lands on the next one's clock.
func settle() { debug.FreeOSMemory() }

// closedPhase sends the closed loop's passes, reports pass_cpu_x,
// verdict_cpu_x, alloc_mb and peak_rss_mb, and returns the throughput:
// requests per second over the median pass. An item is a read or a
// confirmation of one corpus entry, or any write.
func (m *mixEnv) closedPhase(rep *report) (float64, error) {
	var (
		walls, cpus, rss []float64
		cal              calibration
	)
	perItem, perItemCPU := map[string][]float64{}, map[string][]float64{}
	var alloc uint64
	for _, pass := range m.passes {
		if err := resetPeakRSS(); err != nil {
			return 0, err
		}
		a0, c0 := heapAllocBytes(), cpuSeconds()
		p := m.closedLoop(pass)
		cpus = append(cpus, cpuSeconds()-c0)
		alloc += heapAllocBytes() - a0
		walls = append(walls, p.elapsed.Seconds())
		mb, err := peakRSSMB()
		if err != nil {
			return 0, err
		}
		rss = append(rss, mb)
		// Three jobs a pass, so the calibration median has as many samples
		// behind it as a corpus run's.
		for range 3 {
			cal.run()
		}
		rep.account(p)
		for _, o := range p.out {
			perItem[o.req.item()] = append(perItem[o.req.item()], float64(o.done.Sub(o.sent))/1e6)
			perItemCPU[o.req.item()] = append(perItemCPU[o.req.item()], o.cpu)
		}
	}
	meds := itemMedians(perItem)
	rps := passRequests / median(walls)
	rep.note("closed loop: %d passes of %d requests, median pass %.4f s, %.0f requests/s, item medians geomean %.4f ms, largest %.3f ms",
		len(m.passes), passRequests, median(walls), rps, geomean(meds), maxOf(meds))
	rep.cpuMetrics(median(cpus), geomean(itemMedians(perItemCPU)), &cal)
	rep.metric("alloc_mb", float64(alloc)/1e6/float64(len(m.passes)))
	rep.metric("peak_rss_mb", median(rss))
	return rps, nil
}

// refPhase sends the mix open loop at rate, first without and then with
// the slow input, and returns both parts' outcomes, in order. The latency
// figures it notes come from the first part, so they describe the service
// rather than the one request that runs to its budget: its p50 and p99,
// and the median over items of their median latencies. The p50 falls in a
// sparse stretch of the distribution, between answers that ran alone and
// answers that shared the cores with a confirmation; the median item is a
// cache read, whose median sits in the dense part. The server's own
// figures cover both parts, so the slow input's timeout shows there.
func (m *mixEnv) refPhase(rate float64, rep *report) (phase, error) {
	before, err := m.scrape()
	if err != nil {
		return phase{}, err
	}
	rt0 := readRuntime()
	ref := m.openLoop(m.ref, rate)
	slow := m.openLoop(m.slow, rate)
	rt := readRuntime().since(rt0)
	after, err := m.scrape()
	if err != nil {
		return phase{}, err
	}
	rep.account(ref)
	rep.account(slow)
	both := phase{out: append(ref.out, slow.out...), lagMax: max(ref.lagMax, slow.lagMax)}
	lat := ref.latencies()
	perItem := map[string][]float64{}
	for i, o := range ref.out {
		perItem[o.req.item()] = append(perItem[o.req.item()], lat[i])
	}
	itemP50 := median(itemMedians(perItem))
	rep.runtimeMetrics(rt, float64(len(both.out))/1000)
	rep.layer("bench.gen_lag_ms", float64(both.lagMax)/1e6)
	rep.serverMetrics(before, after, both)
	rep.note("reference phase: %d requests at %.0f/s, then %d with the slow input; p50 %.3f ms, p99 %.3f ms, median item's median %.3f ms",
		len(ref.out), rate, len(slow.out), percentile(lat, 0.5), percentile(lat, 0.99), itemP50)
	return both, nil
}

// serverMetrics reports the server's own view of the reference rate: its
// latency histogram, the transport time the client saw on top of it, and
// its over-capacity and timeout counters.
func (r *report) serverMetrics(before, after map[string]*serve.PromFamily, ref phase) {
	const h = "raserved_request_ns"
	bounds, cum := histDelta(before, after, h)
	r.layer("serve.server_p50_ms", histQuantile(bounds, cum, 0.5)/1e6)
	r.layer("serve.server_p99_ms", histQuantile(bounds, cum, 0.99)/1e6)
	delta := func(fam, sample string) float64 {
		if after[fam] == nil {
			return 0
		}
		v := after[fam].Samples[sample]
		if before[fam] != nil {
			v -= before[fam].Samples[sample]
		}
		return v
	}
	// The scrape that ends the phase is itself observed after it answers,
	// so the count covers exactly the phase's requests and the first scrape.
	if n := delta(h, h+"_count"); n > 0 {
		var client float64
		for _, o := range ref.out {
			client += float64(o.done.Sub(o.sent))
		}
		r.layer("serve.transport_ms", (client/float64(len(ref.out))-delta(h, h+"_sum")/n)/1e6)
	}
	r.layer("serve.over_capacity", delta("raserved_over_capacity_total", "raserved_over_capacity_total"))
	r.layer("serve.timeouts", delta("raserved_timeouts_total", "raserved_timeouts_total"))
}

// account adds a phase's outcomes to the failure accounting.
func (r *report) account(p phase) {
	for _, o := range p.out {
		r.attempted++
		if o.wrong != "" {
			r.failed++
			r.wrongf("%s", o.wrong)
			continue
		}
		if o.err != nil {
			if o.req.kind == "slow" && o.status == http.StatusRequestTimeout {
				r.note("known slow input %s: %v, as expected", o.req.name, o.err)
				continue
			}
			r.failed++
			r.note("failed %s (%s): %v", o.req.name, o.req.kind, o.err)
		}
	}
}

// traceMix replays the reference phase's requests one at a time, first
// through paramra.Verify (and ConfirmViolation) with a fresh library
// cache, then through the traced layer composition with its own cache, and
// holds the two to parity on every request.
func traceMix(env *mixEnv, ref phase, rep *report) error {
	opts, err := serverConfig().Defaulted().Options(serve.RequestOptions{})
	if err != nil {
		return err
	}
	warm := func(f func(src string)) {
		for _, e := range env.corpus {
			f(e.src)
		}
	}
	// Library replay.
	libCache := paramra.NewCache(paramra.CacheOptions{MaxEntries: 4096})
	lopts := opts
	lopts.Cache = libCache
	type libOut struct {
		res paramra.Result
		err error
		n   int
	}
	lib := make([]libOut, len(ref.out))
	warm(func(src string) {
		sys, _ := paramra.Parse(src)
		_, _ = paramra.Verify(context.Background(), sys, lopts)
	})
	t0 := time.Now()
	for i, o := range ref.out {
		ctx, cancel := context.WithTimeout(context.Background(), budgetMS*time.Millisecond)
		sys, err := paramra.Parse(o.req.src)
		var res paramra.Result
		if err == nil {
			res, err = paramra.Verify(ctx, sys, lopts)
		}
		n := -1
		if err == nil && o.req.confirm && res.Unsafe {
			n, _, err = paramra.ConfirmViolation(ctx, sys, res, 4, lopts)
		}
		cancel()
		lib[i] = libOut{res, err, n}
	}
	untraced := time.Since(t0)

	// Traced replay.
	pipe := &tracedPipeline{opts: opts, cache: cache.New(cache.Options{MaxEntries: 4096})}
	capture := obs.NewCapture("")
	var lc layerCounts
	warm(func(src string) {
		sys := lang.MustParseSystem(src)
		_, _ = pipe.verify(context.Background(), sys, nil, &lc)
	})
	lc = layerCounts{}
	t0 = time.Now()
	for i, o := range ref.out {
		ctx, cancel := context.WithTimeout(context.Background(), budgetMS*time.Millisecond)
		root := capture.Tracer.Start("request", nil)
		sp := root.Child(spParse)
		sys, err := lang.ParseSystem(o.req.src)
		sp.End()
		var res paramra.Result
		if err == nil {
			res, err = pipe.verify(ctx, sys, root, &lc)
		}
		n := -1
		if err == nil && o.req.confirm && res.Unsafe {
			n, err = pipe.confirm(ctx, sys, res, 4, root, &lc)
		}
		root.End()
		cancel()
		name := fmt.Sprintf("%s#%d", o.req.name, i)
		rep.checkParity(name, lib[i].res, lib[i].err, res, err)
		if lib[i].n != n {
			rep.wrongf("parity %s: ConfirmViolation env threads %d, traced pipeline %d", name, lib[i].n, n)
		}
		if o.req.kind == "write" && err == nil {
			rep.exactCounts(o.req.name, map[string]int64{"macro_states": int64(res.Stats.MacroStates)})
		}
	}
	traced := time.Since(t0)

	// The writes' Datalog references, traced too: no other part of a run
	// calls encode and datalog. Their spans are set-up work, reported per
	// 1000 reference-phase requests like the rest.
	dopts := paramra.Options{Datalog: true, Parallelism: 1}
	dpipe := &tracedPipeline{opts: dopts}
	for _, o := range ref.out {
		if o.req.by != "datalog" {
			continue
		}
		sys := lang.MustParseSystem(o.req.src)
		want, werr := paramra.Verify(context.Background(), sys, dopts)
		root := capture.Tracer.Start("reference", nil)
		got, gerr := dpipe.verify(context.Background(), sys, root, &lc)
		root.End()
		name := o.req.name + " (datalog reference)"
		rep.checkParity(name, want, werr, got, gerr)
		if gerr == nil {
			if got.Unsafe != o.req.unsafe {
				rep.wrongf("%s: unsafe=%t, set-up reference unsafe=%t", name, got.Unsafe, o.req.unsafe)
			}
			rep.exactCounts(o.req.name, map[string]int64{"skeletons": int64(got.Stats.Skeletons)})
		}
	}
	spans, err := capture.Spans()
	if err != nil {
		return fmt.Errorf("reading the captured trace: %w", err)
	}
	units := float64(len(ref.out)) / 1000
	rep.layerMetrics(selfTimes(spans), lc, units)
	rep.prepassMetrics(spans, units)
	rep.layer("bench.trace_overhead_frac", float64(traced-untraced)/float64(untraced))
	return nil
}
