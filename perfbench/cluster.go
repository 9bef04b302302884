package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/cluster"
	"ramr/internal/service"
	"ramr/internal/workloads"
)

// The cluster workload is a closed loop of two clients posting WC and HG
// jobs (HWL/Small, fresh seeds) to a ramrc handler fronting two
// in-process ramrd workers, each with a one-CPU scheduler budget so the
// two nodes split the host. Client 0 posts WC, client 1 alternates HG and
// WC: the mix in flight is the same on every run, and three in four jobs
// are WC, so the latency median lies inside the WC jobs' cluster rather
// than in the gap between the two apps' latencies.

var clusterApps = []string{"WC", "HG"}

const (
	clusterPoll = 5 * time.Millisecond
	// mergeReplays is how many fetched jobs' partials the merge replay
	// re-merges, and mergeReps how often each.
	mergeReplays = 8
	mergeReps    = 10
)

// workerTransport wraps the coordinator's HTTP transport and times every
// exchange with a worker, from the request to the close of its body.
type workerTransport struct {
	base *http.Transport

	mu    sync.Mutex
	tr    *tracer
	probe []float64
	call  []float64
	bytes []float64
	posts int
	polls int
}

func (t *workerTransport) reset(tr *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tr, t.probe, t.call, t.bytes, t.posts, t.polls = tr, nil, nil, nil, 0, 0
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	kind := ""
	switch {
	case req.Method == http.MethodGet && req.URL.Path == "/stats":
		kind = "probe"
	case req.Method == http.MethodPost && req.URL.Path == "/jobs":
		kind = "call"
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/result"):
		kind = "poll"
	}
	code := resp.StatusCode
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int) {
		end := time.Now()
		t.mu.Lock()
		tr := t.tr
		switch kind {
		case "probe":
			t.probe = append(t.probe, ms(end.Sub(start)))
		case "call":
			t.posts++
			t.call = append(t.call, ms(end.Sub(start)))
		case "poll":
			t.polls++
			if code == http.StatusOK {
				t.bytes = append(t.bytes, float64(n))
			}
		}
		t.mu.Unlock()
		tr.record(tr.newTrace(), 0, "service", "coordinator "+req.Method+" "+req.URL.Path, start, end)
	}}
	return resp, nil
}

// countingBody counts the bytes read and reports them once on Close.
type countingBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(int)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// clusterEnv is a booted two-worker cluster behind a coordinator.
type clusterEnv struct {
	workers []*serviceEnv
	wt      *workerTransport
	front   *cluster.Server
	srv     *httptest.Server
	c       *http.Client
}

func bootCluster() (*clusterEnv, error) {
	env := &clusterEnv{wt: &workerTransport{base: http.DefaultTransport.(*http.Transport).Clone()}, c: newClient()}
	var specs []cluster.WorkerSpec
	for i := 0; i < 2; i++ {
		w, err := bootService(service.Config{Budget: 1})
		if err != nil {
			env.close()
			return nil, err
		}
		env.workers = append(env.workers, w)
		specs = append(specs, cluster.WorkerSpec{URL: w.srv.URL})
	}
	co, err := cluster.New(cluster.Config{
		Workers: specs,
		Client:  &http.Client{Timeout: cluster.DefaultRequestTimeout, Transport: env.wt},
	})
	if err != nil {
		env.close()
		return nil, err
	}
	env.front = cluster.NewServer(co, nil)
	env.srv = httptest.NewServer(env.front.Handler())
	return env, nil
}

func (e *clusterEnv) close() {
	e.c.CloseIdleConnections()
	if e.srv != nil {
		stopServer(e.srv, e.front)
	}
	for _, w := range e.workers {
		w.close()
	}
	e.wt.base.CloseIdleConnections()
}

// clusterDoc is the subset of the coordinator's result document read here.
type clusterDoc struct {
	ID       int                   `json:"id"`
	State    string                `json:"state"`
	Error    string                `json:"error"`
	Digest   string                `json:"digest"`
	Pairs    int                   `json:"pairs"`
	PerShard []cluster.ShardResult `json:"per_shard"`
}

type clusterJob struct {
	app  string
	seed int64
	doc  clusterDoc
}

// clusterCall submits one job to the coordinator and polls it to done.
func clusterCall(e *clusterEnv, tr *tracer, app string, seed int64) (clusterDoc, error) {
	tid := tr.newTrace()
	root := tr.begin(tid, 0, "bench", "cluster job "+app)
	defer root.end()
	body := fmt.Sprintf(`{"workload":%q,"seed":%d}`, app, seed)
	sp := tr.begin(tid, root.id(), "cluster", "POST /jobs")
	r, err := do(e.c, http.MethodPost, e.srv.URL+"/jobs", []byte(body))
	sp.end()
	var doc clusterDoc
	if err == nil && r.code != http.StatusCreated {
		err = fmt.Errorf("POST /jobs: %d %s", r.code, r.body)
	}
	if err == nil {
		err = decode(r, &doc)
	}
	if err != nil {
		return doc, err
	}
	url := fmt.Sprintf("%s/jobs/%d/result", e.srv.URL, doc.ID)
	for {
		time.Sleep(clusterPoll)
		sp := tr.begin(tid, root.id(), "cluster", "GET /jobs/{id}/result")
		r, err = do(e.c, http.MethodGet, url, nil)
		sp.end()
		if err != nil {
			return doc, err
		}
		if r.code == http.StatusAccepted {
			continue
		}
		if r.code != http.StatusOK {
			return doc, fmt.Errorf("GET result of cluster job %d: %d %s", doc.ID, r.code, r.body)
		}
		if err := decode(r, &doc); err != nil {
			return doc, err
		}
		if doc.State != "done" {
			return doc, fmt.Errorf("cluster job %d ended %s: %s", doc.ID, doc.State, doc.Error)
		}
		return doc, nil
	}
}

// runClosedLoop runs two clients until the phase ends; each waits for a
// job's result before posting the next.
func runClosedLoop(e *clusterEnv, tr *tracer, seconds float64, seeds *atomic.Int64) (jobs []clusterJob, lat []float64, failed int, errs []string, rate float64) {
	var mu sync.Mutex
	var done []time.Time
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Since(start).Seconds() < seconds; j++ {
				app := "WC"
				if g == 1 && j%2 == 0 {
					app = "HG"
				}
				seed := seeds.Add(1)
				t0 := time.Now()
				doc, err := clusterCall(e, tr, app, seed)
				d := ms(time.Since(t0))
				mu.Lock()
				if err != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
				} else {
					jobs = append(jobs, clusterJob{app: app, seed: seed, doc: doc})
					lat = append(lat, d)
					done = append(done, time.Now())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, lat, failed, errs, medianRate(done, start, time.Now())
}

// verifyCluster checks each merged digest against a single-node library
// run of the same app and seed, made after the timed phases, two at a time.
func verifyCluster(out *outcome, jobs []clusterJob) error {
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				d, n, err := libraryDigest(j.app, workloads.Small, workloads.StressContainer(j.app), j.seed)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				out.chk.check(j.doc.Digest == d && j.doc.Pairs == n,
					"cluster %s seed %d: merged digest %s pairs %d, single node %s pairs %d",
					j.app, j.seed, j.doc.Digest, j.doc.Pairs, d, n)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// mergeReplay fetches the shard partials of the last jobs from the
// workers and times workloads.MergePartials plus Summary on them; the
// replayed digest must equal the coordinator's.
func mergeReplay(e *clusterEnv, tr *tracer, jobs []clusterJob, out *outcome) ([]float64, error) {
	var times []float64
	for _, j := range jobs[max(0, len(jobs)-mergeReplays):] {
		var parts []*workloads.Partial
		for _, sh := range j.doc.PerShard {
			r, err := do(e.c, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result", sh.Worker, sh.JobID), nil)
			if err != nil {
				return nil, err
			}
			if r.code != http.StatusOK {
				return nil, fmt.Errorf("fetching shard %s of job %d: %d", sh.Shard, j.doc.ID, r.code)
			}
			var doc struct {
				Partial *workloads.Partial `json:"partial"`
			}
			if err := decode(r, &doc); err != nil {
				return nil, err
			}
			parts = append(parts, doc.Partial)
		}
		var reps []float64
		var digest uint64
		for k := 0; k < mergeReps; k++ {
			sp := tr.begin(tr.newTrace(), 0, "workloads", "MergePartials+Summary")
			start := time.Now()
			merged, err := workloads.MergePartials(parts)
			if err != nil {
				return nil, err
			}
			_, d, err := merged.Summary()
			if err != nil {
				return nil, err
			}
			reps = append(reps, ms(time.Since(start)))
			sp.end()
			digest = d
		}
		out.chk.check(fmt.Sprintf("%016x", digest) == j.doc.Digest,
			"cluster merge replay of job %d: digest %016x, coordinator %s", j.doc.ID, digest, j.doc.Digest)
		times = append(times, quantile(reps, 0.5))
	}
	return times, nil
}

func runCluster(p plan) (*outcome, error) {
	out := newOutcome()
	var env *clusterEnv
	var seeds atomic.Int64
	seeds.Store(p.seed * 1_000_000)
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		e, err := bootCluster()
		if err != nil {
			return nil, err
		}
		for _, app := range clusterApps { // warm-up
			if _, err := clusterCall(e, nil, app, p.seed*1_000_000+900_000+int64(i)); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up %s: %w", app, err)
			}
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		if env != nil {
			env.close()
		}
		env = e
	}
	defer env.close()

	var all, last []clusterJob
	for k, ph := range p.phases {
		env.wt.reset(ph.tr)
		jobs, lat, failed, errs, rate := runClosedLoop(env, ph.tr, ph.seconds, &seeds)
		out.attempted += len(jobs) + failed
		out.failed += failed
		for _, e := range errs {
			out.notes = append(out.notes, "error: cluster: "+e)
		}
		out.endPhase(lat, rate)
		all = append(all, jobs...)
		last = jobs
		if k == 0 {
			out.extra.set("jobs_per_s", "1/s", out.ops[0], len(lat))
			out.extra.dist("job_ms", "ms", lat)
			perApp := map[string][]float64{}
			for i, j := range jobs {
				perApp[j.app] = append(perApp[j.app], lat[i])
			}
			for app, xs := range perApp {
				out.extra.dist("job_ms."+app, "ms", xs)
			}
		}
	}
	if err := verifyCluster(out, all); err != nil {
		return nil, err
	}
	merges, err := mergeReplay(env, p.phases[len(p.phases)-1].tr, last, out)
	if err != nil {
		return nil, err
	}

	wt := env.wt
	wt.mu.Lock()
	defer wt.mu.Unlock()
	var shards, replaced int
	for _, j := range last {
		for _, sh := range j.doc.PerShard {
			shards++
			replaced += sh.Replaced
		}
	}
	m := out.layer
	m.set("cluster.probe_ms.p50", "ms", quantile(wt.probe, 0.5), len(wt.probe))
	m.dist("cluster.worker_call_ms", "ms", wt.call)
	m.per("cluster.polls_per_shard", "polls/shard", float64(wt.polls), float64(wt.posts), wt.posts)
	m.set("cluster.partial_bytes.p50", "bytes", quantile(wt.bytes, 0.5), len(wt.bytes))
	m.set("cluster.merge_ms.p50", "ms", quantile(merges, 0.5), len(merges))
	m.ratio("cluster.replace_ratio", float64(replaced), float64(shards), shards)
	clusterFinding(out, p.seed)
	return out, nil
}

// clusterFinding measures what each shard pays to generate the whole
// input before filtering its splits.
func clusterFinding(out *outcome, seed int64) {
	for _, app := range clusterApps {
		in, err := workloads.Input(app, workloads.HWL, workloads.Small)
		if err != nil {
			continue
		}
		start := time.Now()
		if app == "WC" {
			workloads.GenerateText(in.Params.Bytes, seed)
		} else {
			workloads.GeneratePixels(in.Params.Bytes, seed)
		}
		g := ms(time.Since(start))
		out.extra.set("full_input_gen_ms."+app, "ms", g, 1)
		out.notes = append(out.notes, fmt.Sprintf(
			"each shard generates the full %s input (%d bytes, %.1f ms here) before filtering its splits", app, in.Params.Bytes, g))
	}
}
