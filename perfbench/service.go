package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ramr/internal/container"
	"ramr/internal/memo"
	"ramr/internal/mr"
	"ramr/internal/sched"
	"ramr/internal/service"
	"ramr/internal/workloads"
)

// The service workload is an open loop of POST /jobs requests to an
// in-process ramrd on a seeded Poisson schedule. Half the requests
// repeat an earlier body, so they take the memo-hit path (or coalesce
// onto a running job); the rest execute, with fixed-array containers so
// the fold does little and HTTP, admission and the memo dominate.

const (
	// serviceRate leaves the service headroom on a 2-vCPU host: near 15
	// requests per second a stall of the host tips it into overload,
	// and latency then grows for the rest of the run.
	serviceRate = 10.0 // requests per second
	// servicePoll paces result polling of an admitted job.
	servicePoll = 5 * time.Millisecond
	// repeatAge is how long before its own due time an earlier body must
	// have been due for a request to repeat it, so repeats mostly find
	// the result cached rather than still running.
	repeatAge = time.Second
)

var serviceApps = []string{"HG", "KM", "LR", "MM", "PCA"}

// serviceBody is one distinct job body of the schedule.
type serviceBody struct {
	app  string
	seed int64
	json []byte
}

type serviceReq struct {
	due  time.Duration
	body int // index into the phase's bodies
}

// schedObserver taps scheduler events: queue waits and the time-weighted
// number of granted CPUs.
type schedObserver struct {
	mu      sync.Mutex
	queued  map[int]time.Time
	waits   []float64
	since   time.Time
	last    time.Time
	inUse   int
	cpuSecs float64
}

func newSchedObserver() *schedObserver {
	return &schedObserver{queued: map[int]time.Time{}, since: time.Now(), last: time.Now()}
}

func (o *schedObserver) observe(ev sched.Event) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cpuSecs += float64(o.inUse) * now.Sub(o.last).Seconds()
	o.last, o.inUse = now, ev.InUse
	switch ev.Kind {
	case sched.EventQueued:
		o.queued[ev.JobID] = now
	case sched.EventStarted:
		if q, ok := o.queued[ev.JobID]; ok {
			o.waits = append(o.waits, ms(now.Sub(q)))
			delete(o.queued, ev.JobID)
		}
	case sched.EventCanceled:
		delete(o.queued, ev.JobID)
	}
}

// reset starts a new observation window.
func (o *schedObserver) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.waits, o.cpuSecs = nil, 0
	o.since, o.last = time.Now(), time.Now()
}

// window returns the queue waits and the mean CPUs granted since reset.
func (o *schedObserver) window() ([]float64, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	busy := o.cpuSecs + float64(o.inUse)*now.Sub(o.last).Seconds()
	return append([]float64(nil), o.waits...), busy / now.Sub(o.since).Seconds()
}

// serviceEnv is one booted ramrd behind an httptest server.
type serviceEnv struct {
	svc *service.Service
	srv *httptest.Server
	obs *schedObserver
	c   *http.Client
}

func bootService(cfg service.Config) (*serviceEnv, error) {
	obs := newSchedObserver()
	cfg.Observer = obs.observe
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	return &serviceEnv{svc: svc, srv: httptest.NewServer(svc.Handler()), obs: obs, c: newClient()}, nil
}

func (e *serviceEnv) close() {
	e.c.CloseIdleConnections()
	stopServer(e.srv, e.svc)
}

// jobDoc is the subset of the service's job documents the benchmark reads.
type jobDoc struct {
	ID        int    `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Digest    string `json:"digest"`
	Pairs     int    `json:"pairs"`
}

// answer is one completed request.
type answer struct {
	body  int
	class string // hit, miss or coalesced
	doc   jobDoc
}

// serviceStats collects one phase's client-side measurements.
type serviceStats struct {
	mu                          sync.Mutex
	miss, hit, coalesced, late  []float64
	submit, get, bytes, hitPost []float64
	polls, admitted             int
	answers                     []answer
	missIDs                     []int
}

func (s *serviceStats) add(f func(*serviceStats)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// serviceSchedule draws one phase's requests: a fixed count at a Poisson
// rate (uniform due times given the count), half of them chosen to repeat
// an earlier body that was due at least repeatAge before. Apps and
// priorities are dealt from shuffled blocks, so every seed offers the
// same mix and only the order varies.
func serviceSchedule(rng *rand.Rand, seconds float64, seedBase int64) ([]serviceReq, []serviceBody) {
	n := int(serviceRate*seconds + 0.5)
	if n < 4 {
		n = 4
	}
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	repeat := make([]bool, n)
	for i := 0; i < n/2; i++ {
		repeat[i] = true
	}
	rng.Shuffle(n, func(i, j int) { repeat[i], repeat[j] = repeat[j], repeat[i] })
	apps := dealer(rng, serviceApps)
	prios := dealer(rng, []string{"low", "normal", "normal", "high"})
	var bodies []serviceBody
	reqs := make([]serviceReq, n)
	old := 0 // bodies first due at least repeatAge before the current request
	firstDue := []time.Duration{}
	for i, due := range dues {
		reqs[i].due = due
		for old < len(bodies) && due-firstDue[old] >= repeatAge {
			old++
		}
		if repeat[i] && old > 0 {
			reqs[i].body = rng.Intn(old)
			continue
		}
		app := apps()
		seed := seedBase + int64(len(bodies))
		js, _ := json.Marshal(map[string]any{ // plain values always encode
			"workload": app, "class": "small", "container": "fixedarray",
			"engine": "ramr", "priority": prios(), "seed": seed,
		})
		reqs[i].body = len(bodies)
		bodies = append(bodies, serviceBody{app: app, seed: seed, json: js})
		firstDue = append(firstDue, due)
	}
	return reqs, bodies
}

// dealer returns a function dealing xs in shuffled blocks: every len(xs)
// consecutive calls return each element once.
func dealer(rng *rand.Rand, xs []string) func() string {
	var block []string
	return func() string {
		if len(block) == 0 {
			block = append(block, xs...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		x := block[0]
		block = block[1:]
		return x
	}
}

// pending is an admitted job whose result the client has not seen yet.
type pending struct {
	id        int
	body      int
	due       time.Time
	coalesced bool
	tid       uint64
	root      *open
	polls     int
	next      time.Time // earliest next poll
}

// submit POSTs one body: a memo hit returns its answer, an admitted job
// a pending entry to poll.
func submit(e *serviceEnv, tr *tracer, body []byte, due time.Time, st *serviceStats) (*answer, *pending, error) {
	tid := tr.newTrace()
	root := tr.begin(tid, 0, "bench", "request")
	sp := tr.begin(tid, root.id(), "service", "POST /jobs")
	r, err := do(e.c, http.MethodPost, e.srv.URL+"/jobs", body)
	sp.end()
	if err != nil {
		root.end()
		return nil, nil, err
	}
	st.add(func(s *serviceStats) { s.submit = append(s.submit, ms(r.took)) })
	var doc jobDoc
	switch r.code {
	case http.StatusOK, http.StatusCreated:
		if err := decode(r, &doc); err != nil {
			root.end()
			return nil, nil, err
		}
	default:
		root.end()
		return nil, nil, fmt.Errorf("POST /jobs: %d %s", r.code, r.body)
	}
	if r.code == http.StatusCreated {
		return nil, &pending{id: doc.ID, due: due, coalesced: doc.Coalesced, tid: tid, root: root,
			next: time.Now().Add(servicePoll)}, nil
	}
	root.end()
	if !doc.Cached {
		return nil, nil, fmt.Errorf("200 reply without cached flag")
	}
	lat, took := ms(time.Since(due)), ms(r.took)
	st.add(func(s *serviceStats) {
		s.hit = append(s.hit, lat)
		s.hitPost = append(s.hitPost, took)
	})
	return &answer{class: "hit", doc: doc}, nil, nil
}

// poll GETs p's result once; done reports whether the job finished.
func (p *pending) poll(e *serviceEnv, tr *tracer, st *serviceStats) (done bool, a answer, err error) {
	sp := tr.begin(p.tid, p.root.id(), "service", "GET /jobs/{id}/result")
	r, err := do(e.c, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result", e.srv.URL, p.id), nil)
	sp.end()
	if err != nil {
		p.root.end()
		return false, a, err
	}
	p.polls++
	took := ms(r.took)
	st.add(func(s *serviceStats) { s.get = append(s.get, took) })
	switch r.code {
	case http.StatusAccepted:
		p.next = time.Now().Add(servicePoll)
		return false, a, nil
	case http.StatusOK:
	default:
		p.root.end()
		return false, a, fmt.Errorf("GET result of job %d: %d %s", p.id, r.code, r.body)
	}
	p.root.end()
	if err := decode(r, &a.doc); err != nil {
		return false, a, err
	}
	if a.doc.State != "done" || a.doc.Error != "" {
		return false, a, fmt.Errorf("job %d ended %s: %s", p.id, a.doc.State, a.doc.Error)
	}
	lat, size := ms(time.Since(p.due)), float64(len(r.body))
	a.class, a.body = "miss", p.body
	if p.coalesced {
		a.class = "coalesced"
	}
	st.add(func(s *serviceStats) {
		s.polls += p.polls
		s.admitted++
		s.bytes = append(s.bytes, size)
		if p.coalesced {
			s.coalesced = append(s.coalesced, lat)
		} else {
			s.miss = append(s.miss, lat)
			s.missIDs = append(s.missIDs, p.id)
		}
	})
	return true, a, nil
}

// serviceCall runs one request to completion on the calling goroutine.
func serviceCall(e *serviceEnv, tr *tracer, body []byte, due time.Time, st *serviceStats) (answer, error) {
	a, p, err := submit(e, tr, body, due, st)
	if err != nil || a != nil {
		return deref(a), err
	}
	for {
		sleepUntil(p.next)
		done, a, err := p.poll(e, tr, st)
		if err != nil || done {
			return a, err
		}
	}
}

func deref(a *answer) answer {
	if a == nil {
		return answer{}
	}
	return *a
}

// runOpenLoop plays a schedule with two client goroutines: the caller
// sends each request at its due time, and a poller watches every
// admitted job until its result arrives, so a slow job never delays the
// next send.
func runOpenLoop(e *serviceEnv, tr *tracer, reqs []serviceReq, bodies []serviceBody, st *serviceStats) (failed int, errs []string, elapsed time.Duration) {
	var mu sync.Mutex
	record := func(a answer, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
			return
		}
		st.answers = append(st.answers, a)
	}
	// Sized to the number of sends, so the sender never blocks on it.
	admitted := make(chan *pending, len(reqs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []*pending
		for more := true; more || len(live) > 0; {
			if len(live) == 0 {
				p, ok := <-admitted
				if !ok {
					break
				}
				live = append(live, p)
			}
			for drained := false; more && !drained; {
				select {
				case p, ok := <-admitted:
					if !ok {
						more = false
					} else {
						live = append(live, p)
					}
				default:
					drained = true
				}
			}
			first := 0
			for i, p := range live {
				if p.next.Before(live[first].next) {
					first = i
				}
			}
			p := live[first]
			sleepUntil(p.next)
			done, a, err := p.poll(e, tr, st)
			if done || err != nil {
				live = append(live[:first], live[first+1:]...)
				record(a, err)
			}
		}
	}()
	start := time.Now()
	for _, r := range reqs {
		due := start.Add(r.due)
		sleepUntil(due)
		late := ms(time.Since(due))
		st.add(func(s *serviceStats) { s.late = append(s.late, late) })
		a, p, err := submit(e, tr, bodies[r.body].json, due, st)
		switch {
		case err != nil:
			record(answer{}, err)
		case a != nil:
			a.body = r.body
			record(*a, nil)
		default:
			p.body = r.body
			admitted <- p
		}
	}
	close(admitted)
	wg.Wait()
	return failed, errs, time.Since(start)
}

// libraryDigest runs a service request's job in-process, the reference
// a served result must equal (the digest for exact apps, the pair count
// for every app).
func libraryDigest(app string, class workloads.SizeClass, kind container.Kind, seed int64) (string, int, error) {
	job, err := workloads.NewJob(app, workloads.HWL, class, kind, seed)
	if err != nil {
		return "", 0, err
	}
	info, err := job.Run(workloads.EngineRAMR, mr.DefaultConfig())
	if err != nil {
		return "", 0, err
	}
	d := ""
	if info.Digest != 0 {
		d = fmt.Sprintf("%016x", info.Digest)
	}
	return d, info.Pairs, nil
}

func runService(p plan) (*outcome, error) {
	out := newOutcome()
	var env *serviceEnv
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		e, err := bootService(service.Config{})
		if err != nil {
			return nil, err
		}
		// Warm-up: one job per app, then a repeat of each (the hit path).
		warm := p.seed*1_000_000 + 900_000
		for _, pass := range []string{"execute", "repeat"} {
			for j, app := range serviceApps {
				body, _ := json.Marshal(map[string]any{ // plain values always encode
					"workload": app, "class": "small", "container": "fixedarray", "seed": warm + int64(j),
				})
				if _, err := serviceCall(e, nil, body, time.Now(), &serviceStats{}); err != nil {
					e.close()
					return nil, fmt.Errorf("warm-up %s %s: %w", pass, app, err)
				}
			}
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		if env != nil {
			env.close()
		}
		env = e
	}
	defer env.close()

	rng := rand.New(rand.NewSource(p.seed))
	var (
		st     *serviceStats
		memo0  memo.Stats
		sch0   sched.Stats
		busy   float64
		waits  []float64
		served []servedAnswer
	)
	for k, ph := range p.phases {
		st = &serviceStats{}
		reqs, bodies := serviceSchedule(rng, ph.seconds, p.seed*1_000_000+int64(k)*100_000)
		memo0, sch0 = env.svc.Cache().Stats(), env.svc.Scheduler().Stats()
		env.obs.reset()
		failed, errs, elapsed := runOpenLoop(env, ph.tr, reqs, bodies, st)
		waits, busy = env.obs.window()
		out.attempted += len(reqs)
		out.failed += failed
		for _, e := range errs {
			out.notes = append(out.notes, "error: service: "+e)
		}
		out.endPhase(st.miss, float64(len(reqs)-failed)/elapsed.Seconds())
		for _, a := range st.answers {
			served = append(served, servedAnswer{bodies[a.body], a})
		}
		if k == 0 {
			out.extra.dist("miss_ms", "ms", st.miss)
			out.extra.dist("hit_ms", "ms", st.hit)
			out.extra.set("late_ms.p90", "ms", quantile(st.late, 0.9), len(st.late))
			out.extra.set("coalesced", "count", float64(len(st.coalesced)), len(st.coalesced))
		}
	}
	if err := verifyService(out, served); err != nil {
		return nil, err
	}
	if err := serviceFinding(out, st, served); err != nil {
		return nil, err
	}

	memo1, sch1 := env.svc.Cache().Stats(), env.svc.Scheduler().Stats()
	lookups := float64((memo1.Hits - memo0.Hits) + (memo1.Misses - memo0.Misses))
	m := out.layer
	m.dist("sched.queue_wait_ms", "ms", waits)
	m.set("sched.cpus_busy_mean", "cpus", busy, len(st.miss))
	m.ratio("sched.rejected_ratio", float64(sch1.Rejected-sch0.Rejected),
		float64(sch1.Accepted-sch0.Accepted+sch1.Rejected-sch0.Rejected), sch1.Accepted-sch0.Accepted)
	m.ratio("memo.hit_ratio", float64(memo1.Hits-memo0.Hits), lookups, int(lookups))
	m.ratio("memo.coalesced_ratio", float64(memo1.Coalesced-memo0.Coalesced), lookups, int(lookups))
	m.set("memo.evictions", "count", float64(memo1.Evictions-memo0.Evictions), int(lookups))
	m.dist("memo.hit_ms", "ms", st.hit)
	m.dist("service.submit_ms", "ms", st.submit)
	m.set("service.result_get_ms.p50", "ms", quantile(st.get, 0.5), len(st.get))
	m.set("service.result_bytes.p50", "bytes", quantile(st.bytes, 0.5), len(st.bytes))
	m.per("service.polls_per_job", "polls/job", float64(st.polls), float64(st.admitted), st.admitted)
	alloc, err := grantAllocs(env, st.missIDs)
	if err != nil {
		return nil, err
	}
	m.set("sched.grant_alloc_us.p50", "us", quantile(alloc, 0.5), len(alloc))
	return out, nil
}

// servedAnswer pairs a completed request with the body it carried.
type servedAnswer struct {
	body serviceBody
	a    answer
}

// verifyService checks every served result against an in-process
// library run of the same request, made after the timed phases. Hits
// and coalesced answers are checked like misses, so a hit carries the
// same digest as the miss that computed it.
func verifyService(out *outcome, served []servedAnswer) error {
	type ref struct {
		digest string
		pairs  int
	}
	refs := map[string]ref{}
	for _, s := range served {
		key := string(s.body.json)
		r, ok := refs[key]
		if !ok {
			d, n, err := libraryDigest(s.body.app, workloads.Small, container.KindFixedArray, s.body.seed)
			if err != nil {
				return fmt.Errorf("library run of %s seed %d: %w", s.body.app, s.body.seed, err)
			}
			r = ref{d, n}
			refs[key] = r
		}
		out.chk.check(s.a.doc.Digest == r.digest && s.a.doc.Pairs == r.pairs,
			"service %s seed %d (%s): digest %q pairs %d, library %q pairs %d",
			s.body.app, s.body.seed, s.a.class, s.a.doc.Digest, s.a.doc.Pairs, r.digest, r.pairs)
	}
	return nil
}

// serviceFinding measures what a memo hit pays for input generation: the
// service builds the job (generating its input) before the cache lookup,
// so a hit's POST round trip tracks the generation time of its input.
func serviceFinding(out *outcome, st *serviceStats, served []servedAnswer) error {
	var gen []float64
	for _, s := range served {
		if s.a.class != "hit" || len(gen) >= 20 {
			continue
		}
		start := time.Now()
		if _, err := workloads.NewJob(s.body.app, workloads.HWL, workloads.Small, container.KindFixedArray, s.body.seed); err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(start)))
	}
	g, h := quantile(gen, 0.5), quantile(st.hitPost, 0.5)
	out.extra.set("hit_input_gen_ms.p50", "ms", g, len(gen))
	out.extra.set("hit_post_ms.p50", "ms", h, len(st.hitPost))
	out.notes = append(out.notes, fmt.Sprintf(
		"memo hits pay input generation: hit POST round trip p50 %.2f ms, generating the same inputs in-process p50 %.2f ms", h, g))
	return nil
}

// grantAllocs reads the grant-allocation span of each executed job's
// lifecycle trace (the scheduler's carve time, in whole microseconds).
func grantAllocs(e *serviceEnv, ids []int) ([]float64, error) {
	var out []float64
	for _, id := range ids {
		r, err := do(e.c, http.MethodGet, fmt.Sprintf("%s/jobs/%d/trace", e.srv.URL, id), nil)
		if err != nil {
			return nil, err
		}
		if r.code == http.StatusNotFound {
			continue // retired by the registry bound
		}
		var events []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		}
		if err := decode(r, &events); err != nil {
			return nil, fmt.Errorf("trace of job %d: %w", id, err)
		}
		for _, ev := range events {
			if ev.Name == "grant-alloc" {
				out = append(out, ev.Dur)
			}
		}
	}
	return out, nil
}
