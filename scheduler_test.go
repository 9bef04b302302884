package ramr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr"
	"ramr/internal/faultinject"
)

// TestSchedulerConcurrentJobs runs three mixed-priority jobs through the
// public Scheduler API on a synthetic 56-CPU machine and checks typed
// results, disjoint CPU grants and engine mixing (RAMR + Phoenix).
func TestSchedulerConcurrentJobs(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone // grants name CPUs the 1-CPU CI host lacks

	want := func(t *testing.T, res *ramr.Result[string, int]) {
		t.Helper()
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if total != 8*200 {
			t.Fatalf("total word count = %d, want %d", total, 8*200)
		}
	}

	// Each job's first Map call waits until all three jobs are running,
	// so their grants are held at once and must be disjoint. Without it a
	// fast job can finish and free its CPUs before a later one is granted.
	var running atomic.Int32
	allRunning := make(chan struct{})
	overlapping := func() *ramr.Spec[string, string, int, int] {
		spec := wcSpec(8)
		inner := spec.Map
		var once sync.Once
		spec.Map = func(s string, emit func(string, int)) {
			once.Do(func() {
				if running.Add(1) == 3 {
					close(allRunning)
				}
				select {
				case <-allRunning:
				case <-time.After(10 * time.Second):
				}
			})
			inner(s, emit)
		}
		return spec
	}

	h1, err := ramr.Submit(sc, overlapping(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityHigh, MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ramr.Submit(sc, overlapping(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityNormal, MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := ramr.Submit(sc, overlapping(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityLow, MaxCPUs: 8, Phoenix: true})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, h := range []*ramr.JobHandle[string, int]{h1, h2, h3} {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", h.ID(), err)
		}
		want(t, res)
	}

	// Grants were disjoint: with the machine far wider than the three
	// 8-CPU jobs, all three ran concurrently on separate CPU sets.
	seen := map[int]int{}
	for _, h := range []*ramr.JobHandle[string, int]{h1, h2, h3} {
		st := h.Status()
		if len(st.Grant) == 0 {
			t.Fatalf("job %d has no grant", st.ID)
		}
		for _, c := range st.Grant {
			if prev, dup := seen[c]; dup {
				t.Fatalf("CPU %d in grants of jobs %d and %d", c, prev, st.ID)
			}
			seen[c] = st.ID
		}
	}

	if st := sc.Stats(); st.Finished != 3 || st.InUse != 0 {
		t.Fatalf("stats = %+v, want Finished 3 InUse 0", st)
	}
	if leaked := faultinject.AwaitNoWorkers(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines leaked after scheduled runs", len(leaked))
	}
}

// TestJobHandleTrace checks the public lifecycle-trace surface: after a
// scheduled job finishes, Trace() serves a Chrome-trace JSON document
// whose lifecycle spans cover queue wait, grant allocation (CPU set as
// span args) and the execution, with worker lanes stitched below.
func TestJobHandleTrace(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone

	h, err := ramr.Submit(sc, wcSpec(8), cfg, ramr.SubmitOptions{Name: "traced", MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := h.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	spans := map[string]map[string]any{}
	for _, ev := range events {
		if ev["ph"] == "X" {
			spans[ev["name"].(string)] = ev
		}
	}
	for _, want := range []string{"traced", "queue-wait", "grant-alloc", "execute"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("trace missing span %q", want)
		}
	}
	if args, _ := spans["traced"]["args"].(map[string]any); args == nil ||
		int(args["job_id"].(float64)) != h.ID() || args["status"] != "done" {
		t.Fatalf("root span args = %v, want job_id=%d status=done", spans["traced"]["args"], h.ID())
	}
	ga, _ := spans["grant-alloc"]["args"].(map[string]any)
	if ga == nil || len(ga["cpus"].([]any)) == 0 {
		t.Fatalf("grant-alloc span args = %v, want non-empty cpus", ga)
	}
	// Worker lanes from the attached collector: at least one thread_name
	// metadata row besides the lifecycle lane.
	lanes := 0
	for _, ev := range events {
		if ev["ph"] == "M" {
			lanes++
		}
	}
	if lanes < 2 {
		t.Fatalf("%d lanes in trace, want lifecycle + worker lanes", lanes)
	}
}

func TestSchedulerSaturationAndDrain(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone

	// One job wide enough to hold the whole budget, then fill the
	// 1-deep queue, then overflow it.
	wide, err := ramr.Submit(sc, wcSpec(64), cfg, ramr.SubmitOptions{MinCPUs: sc.Budget(), MaxCPUs: sc.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := ramr.Submit(sc, wcSpec(4), cfg, ramr.SubmitOptions{MinCPUs: sc.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ramr.Submit(sc, wcSpec(4), cfg, ramr.SubmitOptions{}); !errors.Is(err, ramr.ErrSaturated) {
		t.Fatalf("overflow submit err = %v, want ErrSaturated", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain must not lose the accepted queued job.
	if _, err := wide.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := queued.Wait(ctx); err != nil || res == nil {
		t.Fatalf("queued job lost in drain: res=%v err=%v", res, err)
	}
}
