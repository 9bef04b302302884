package faultinject

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/stream"
	"ramr/internal/topology"
)

func TestNewPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := NewPlan(seed, 4, 2)
		b := NewPlan(seed, 4, 2)
		if a != b {
			t.Fatalf("seed %d: %v != %v", seed, a, b)
		}
		if a.Worker < 0 || a.Nth < 1 || a.Every < 1 || a.Delay <= 0 {
			t.Fatalf("seed %d: degenerate plan %v", seed, a)
		}
		switch a.Kind {
		case PanicCombineBatch, DelayCombine, CancelMidDrain:
			if a.Worker >= 2 {
				t.Fatalf("seed %d: combiner-scoped worker %d out of range", seed, a.Worker)
			}
		default:
			if a.Worker >= 4 {
				t.Fatalf("seed %d: map-scoped worker %d out of range", seed, a.Worker)
			}
		}
	}
}

func TestPlanKindsCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for seed := int64(0); seed < 500; seed++ {
		seen[NewPlan(seed, 4, 2).Kind] = true
	}
	for k := None; k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("kind %v never drawn in 500 seeds", k)
		}
	}
}

func TestInjectorFiresAtNth(t *testing.T) {
	plan := Plan{Seed: 1, Kind: PanicMapEmit, Worker: 1, Nth: 3}
	in := NewInjector(plan, 2, 1, nil)
	h := in.Hooks()
	h.MapEmit(0) // wrong worker: never fires
	h.MapEmit(1)
	h.MapEmit(1)
	if in.Fired() {
		t.Fatal("fired before Nth call")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic at Nth emit")
			}
		}()
		h.MapEmit(1)
	}()
	if !in.Fired() {
		t.Fatal("not marked fired")
	}
}

func TestWrapCombineCountsGlobally(t *testing.T) {
	plan := Plan{Seed: 2, Kind: PanicCombine, Nth: 5}
	in := NewInjector(plan, 1, 1, nil)
	f := WrapCombine(in, func(a, b int) int { return a + b })
	for i := 0; i < 4; i++ {
		if got := f(1, 2); got != 3 {
			t.Fatalf("wrapped combine = %d", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic at Nth combine")
		}
	}()
	f(1, 2)
}

func TestCheckQueues(t *testing.T) {
	good := []QueueReport{{Queue: 0, Drained: true, Stats: spsc.Stats{Pushes: 10, Pops: 10}}}
	if err := CheckQueues(good); err != nil {
		t.Fatal(err)
	}
	undrained := []QueueReport{{Queue: 1, Drained: false}}
	if err := CheckQueues(undrained); err == nil {
		t.Fatal("undrained queue accepted")
	}
	leaky := []QueueReport{{Queue: 2, Drained: true, Stats: spsc.Stats{Pushes: 10, Pops: 7}}}
	if err := CheckQueues(leaky); err == nil {
		t.Fatal("conservation violation accepted")
	}
}

func TestWorkerStacksFindsQueueWaiter(t *testing.T) {
	q := spsc.MustNew[int](2, spsc.WaitSleep)
	q.Push(1)
	q.Push(2)
	blocked := make(chan struct{})
	go func() {
		close(blocked)
		q.Push(3) // blocks in waitUntil until the consumer pops
	}()
	<-blocked
	deadline := time.Now().Add(2 * time.Second)
	for len(WorkerStacks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked spsc producer not visible in WorkerStacks")
		}
		time.Sleep(time.Millisecond)
	}
	q.TryPop() // release the producer
	q.TryPop()
	q.TryPop()
	if leaked := AwaitNoWorkers(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("worker still reported after release:\n%s", leaked[0])
	}
}

// parkCombiner blocks a combiner inside Hooks.CombineBatch until release
// closes; its frame marks the blocked goroutine's stack.
func parkCombiner(entered *sync.Once, in, release chan struct{}) {
	entered.Do(func() { close(in) })
	<-release
}

// awaitParkedCombiner waits until a combiner is parked in parkCombiner
// and asserts WorkerStacks reports it through one of core's pool sites:
// the ring frame under the hook matches the spsc site too, so only a core
// site proves a renamed pool function has not gone unlisted.
func awaitParkedCombiner(t *testing.T, in chan struct{}) {
	t.Helper()
	select {
	case <-in:
	case <-time.After(5 * time.Second):
		t.Fatal("no combiner entered the CombineBatch hook")
	}
	for _, block := range WorkerStacks() {
		if !strings.Contains(block, "faultinject.parkCombiner") {
			continue
		}
		for _, site := range workerSites {
			if strings.HasPrefix(site, "ramr/internal/core.") && strings.Contains(block, site) {
				return
			}
		}
		t.Fatalf("parked combiner matched no core pool site:\n%s", block)
	}
	t.Fatal("combiner blocked in CombineBatch not visible in WorkerStacks")
}

// TestWorkerStacksFindsBlockedCombiner: a combiner blocked in user code
// must stay visible to the leak check, for a RAMR run and for a stream
// session alike — both run on core's combiner pool.
func TestWorkerStacksFindsBlockedCombiner(t *testing.T) {
	const keys = 8
	newSpec := func() *mr.Spec[int, int, int, int] {
		return &mr.Spec[int, int, int, int]{
			Name:   "count",
			Splits: []int{0, 1, 2, 3},
			Map: func(s int, emit func(int, int)) {
				for e := 0; e < 100; e++ {
					emit((s+e)%keys, 1)
				}
			},
			Combine:      func(a, b int) int { return a + b },
			Reduce:       mr.IdentityReduce[int, int](),
			NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](keys) },
			Less:         func(a, b int) bool { return a < b },
		}
	}
	newConfig := func(in, release chan struct{}) mr.Config {
		cfg := mr.DefaultConfig()
		cfg.Mappers, cfg.Combiners = 2, 1
		cfg.Machine = topology.Flat(4)
		cfg.Pin = mr.PinNone
		var entered sync.Once
		cfg.Hooks = &mr.Hooks{CombineBatch: func(int) { parkCombiner(&entered, in, release) }}
		return cfg
	}

	t.Run("ramr", func(t *testing.T) {
		in, release := make(chan struct{}), make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			_, err := core.Run(newSpec(), newConfig(in, release))
			errc <- err
		}()
		awaitParkedCombiner(t, in)
		close(release)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if leaked := AwaitNoWorkers(5 * time.Second); len(leaked) > 0 {
			t.Fatalf("worker still reported after the run:\n%s", leaked[0])
		}
	})

	t.Run("stream", func(t *testing.T) {
		in, release := make(chan struct{}), make(chan struct{})
		cfg := newConfig(in, release)
		cfg.Stream = &mr.StreamSpec{Window: 1}
		p, err := stream.New(newSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Append(stream.Chunk[int]{Ts: 0, Splits: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
		awaitParkedCombiner(t, in)
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if leaked := AwaitNoWorkers(5 * time.Second); len(leaked) > 0 {
			t.Fatalf("worker still reported after close:\n%s", leaked[0])
		}
	})
}
