// Package core implements RAMR, the paper's contribution: a resource-aware
// MapReduce runtime that decouples the map and combine phases onto two
// separate thread pools and overlaps their execution in a pipeline
// (§III, Fig. 2).
//
// Mappers dequeue tasks from per-locality-group task queues and emit
// intermediate key-value pairs into a private fixed-size SPSC ring buffer
// instead of combining in place. Combiners run concurrently, pop *batches*
// of pairs from their assigned set of mapper queues, apply the combine
// function and accumulate into a private container. When the map phase
// ends, combiners drain any remainder and exit; reduce and merge then
// proceed exactly as in the Phoenix++ baseline.
//
// The decoupling raises the parallelism degree and lets a memory-intensive
// combine overlap a compute-intensive map; the contention-aware pinning
// plan (pinning.go) keeps each combiner on a logical CPU adjacent to its
// mappers so the queue traffic stays in the closest shared cache.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/affinity"
	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/trace"
	"ramr/internal/tuner"
)

// pair is one intermediate key-value element flowing through the queues.
// It is the container package's KV so a consumed queue batch can be handed
// to Container.UpdateBatch without repacking.
type pair[K comparable, V any] = container.KV[K, V]

// Run executes the job with the RAMR strategy under cfg. The thread
// budget is cfg.Mappers map workers plus cfg.NumCombiners() combine
// workers; reduce and merge reuse the general-purpose (mapper) pool as in
// Fig. 2.
func Run[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled, mappers stop
// taking tasks after their current one, the pipeline drains, and the
// context's error is returned. Cancellation latency is bounded by one map
// task plus the drain, never a hung queue.
func RunContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stream != nil {
		return nil, fmt.Errorf("core: Config.Stream is set; streaming runs go through internal/stream, not the batch engine")
	}
	// A context that is already dead must fail fast: no queue, worker or
	// sampler is ever created for a run that cannot make progress.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mappers := cfg.Mappers
	combiners := cfg.NumCombiners()
	machine := cfg.ResolveMachine()
	if err := ValidateGrant(machine, cfg.CPUGrant); err != nil {
		return nil, err
	}

	// With the tuner enabled the combiner pool is elastic: the plan and
	// container set are sized for the pool's ceiling so combiners added
	// mid-run have a pinned CPU and a private container waiting. With it
	// nil everything below collapses to the static sizes.
	maxCombiners := combiners
	var tunerCfg *tuner.Config
	if cfg.Tuner != nil {
		resolved := ResolveTuner(*cfg.Tuner, mappers, cfg.QueueCapacity)
		tunerCfg = &resolved
		// A CPU grant is a hard worker budget: the elastic pool may
		// never grow past what the grant can host alongside the mappers,
		// or a tuned job would spill onto CPUs granted to someone else.
		if g := len(cfg.CPUGrant); g > 0 {
			ceil := g - mappers
			if ceil < 1 {
				ceil = 1
			}
			if tunerCfg.MaxCombiners > ceil {
				tunerCfg.MaxCombiners = ceil
			}
			if tunerCfg.MinCombiners > tunerCfg.MaxCombiners {
				tunerCfg.MinCombiners = tunerCfg.MaxCombiners
			}
		}
		maxCombiners = tunerCfg.MaxCombiners
		if combiners > tunerCfg.MaxCombiners {
			combiners = tunerCfg.MaxCombiners
		}
		if combiners < tunerCfg.MinCombiners {
			combiners = tunerCfg.MinCombiners
		}
	}

	res := &mr.Result[K, R]{}

	// The telemetry layer is captured into a local once (like Hooks) so
	// the nil check never sits on a hot path; Stop is deferred so error
	// returns can never leak the sampler goroutine. The tuner needs the
	// sampler as its epoch clock and signal source, so it brings a
	// private telemetry when the user configured none (no report is
	// attached then).
	tel := cfg.Telemetry
	if tel == nil && tunerCfg != nil {
		tel = telemetry.New()
	}
	if tel != nil {
		tel.BeginRun("ramr")
		defer tel.Stop()
	}

	// --- Init: pools, queues, containers, pinning plan (Fig. 2 top). ---
	t0 := time.Now()
	queues := make([]*spsc.Queue[pair[K, V]], mappers)
	mirrors := make([]*telemetry.QueueMirror, mappers) // nil entries without telemetry
	for i := range queues {
		q, err := spsc.New[pair[K, V]](cfg.QueueCapacity, cfg.Wait)
		if err != nil {
			return nil, err
		}
		queues[i] = q
		if tel != nil {
			mirrors[i] = tel.RegisterQueue(fmt.Sprintf("mapper-%d", i), q)
		}
	}
	containers := make([]container.Container[K, V], maxCombiners)
	for j := range containers {
		containers[j] = spec.NewContainer()
	}
	// The emit slab is clamped to the ring capacity like the consume
	// batch: PushBatch copies oversized blocks in chunks anyway, but a
	// slab beyond the ring capacity only adds latency before the combiner
	// sees anything.
	emitBatch := cfg.EmitBatch
	if emitBatch <= 0 {
		emitBatch = mr.DefaultEmitBatch
	}
	if c := queues[0].Cap(); emitBatch > c {
		emitBatch = c
	}
	plan := BuildPlanOn(machine, cfg.CPUGrant, mappers, maxCombiners, cfg.Pin)
	res.Phases.Init = time.Since(t0)

	// --- Partition: tasks into per-locality-group deques. The mapper →
	// group assignment is computed first because the deques are seeded
	// proportionally to the mappers each group actually holds. ---
	t0 = time.Now()
	tasks := mr.Tasks(len(spec.Splits), cfg.TaskSize)
	groups := machine.LocalityGroups()
	mapperGroup := mapperGroups(machine, plan, mappers, len(groups))
	mappersIn := make([]int, len(groups))
	for _, g := range mapperGroup {
		mappersIn[g]++
	}
	tq := newTaskQueues(tasks, machine, mappersIn, cfg.Steal)
	res.Phases.Partition = time.Since(t0)

	// Per-mapper steal stats fold into the shared aggregate at worker
	// exit (under stealMu), so the hot path only touches mapper-locals.
	var stealMu sync.Mutex
	var stealAgg mr.StealStats

	// --- Map-combine: the decoupled, overlapped phase (Fig. 2). ---
	// User code (Map, Combine) may panic; workers convert the first
	// panic into an error and shut the pipeline down cleanly: a failed
	// mapper still closes its queue, a failed combiner keeps draining
	// its queues (discarding) so blocked producers can finish, and the
	// abort flag stops further task dispatch.
	t0 = time.Now()
	var mapWG sync.WaitGroup
	var firstErr mr.FirstError
	var abort atomic.Bool
	// trip raises the abort flag; the OnAbort hook fires only for the
	// first worker to trip it.
	trip := func() {
		if abort.CompareAndSwap(false, true) {
			cfg.Hooks.FireOnAbort()
		}
	}

	for i := 0; i < mappers; i++ {
		mapWG.Add(1)
		// pprof.Do labels the goroutine (engine/role/worker) so CPU
		// profiles segment mapper time from combiner time; the worker
		// body runs inside the labeled closure so its defers — recover
		// included — stay in the panicking frame chain.
		go func(i int) {
			defer mapWG.Done()
			labels := pprof.Labels("engine", "ramr", "role", "mapper", "worker", strconv.Itoa(i))
			pprof.Do(ctx, labels, func(context.Context) {
				q := queues[i]
				var tw *telemetry.Worker
				if tel != nil {
					tw = tel.RegisterWorker("mapper", i)
				}
				// Emitted pairs are staged in a producer-local slab and
				// published as blocks, so the shared tail index (and the
				// cross-core traffic on its cache line) is touched once
				// per slab instead of once per pair. The slab flushes on
				// fill, at every task boundary, and before the queue
				// closes; EmitBatch == 1 bypasses the slab entirely and
				// emits with single-element Push (the ablation baseline).
				slab := make([]pair[K, V], 0, emitBatch)
				failed := false
				var st mr.StealStats
				defer func() {
					stealMu.Lock()
					stealAgg.Add(st)
					stealMu.Unlock()
				}()
				flush := func() {
					if len(slab) > 0 {
						q.PushBatch(slab)
						slab = slab[:0]
					}
				}
				// Deferred LIFO: recover first, then flush, then Close —
				// the combiner must always be notified, and Push after
				// Close panics. A panicked Map leaves a half-built slab
				// whose pairs must never reach Combine (the run is
				// doomed), so the exit flush is skipped on failure while
				// Close still runs to release the combiner.
				defer q.Close()
				defer func() {
					if !failed {
						flush()
					}
					if tw != nil {
						pu, fp, sl := q.ProducerStats()
						tw.StoreProducer(pu, fp, sl)
						tw.SetState(telemetry.StateDone)
					}
				}()
				defer func() {
					if r := recover(); r != nil {
						failed = true
						firstErr.Set(&mr.PanicError{Engine: "ramr", Worker: fmt.Sprintf("map worker %d", i), Value: r})
						trip()
					}
				}()
				if cpu := plan.MapperCPU[i]; cpu >= 0 && affinity.Supported() {
					unpin, _ := affinity.PinSelf(cpu)
					defer unpin()
				}
				var shard *trace.Shard
				if cfg.Trace != nil {
					shard = cfg.Trace.Shard(fmt.Sprintf("mapper-%d", i))
				}
				emit := func(k K, v V) {
					slab = append(slab, pair[K, V]{K: k, V: v})
					if len(slab) == cap(slab) {
						flush()
					}
				}
				if emitBatch <= 1 {
					emit = func(k K, v V) { q.Push(pair[K, V]{K: k, V: v}) }
				}
				// The emit counter is a plain local flushed into the
				// worker's atomic at task boundaries, so per-pair cost
				// with telemetry on is one non-atomic increment.
				emitted := 0
				if tw != nil {
					inner := emit
					emit = func(k K, v V) {
						emitted++
						inner(k, v)
					}
				}
				var taskHook func(int)
				if hk := cfg.Hooks; hk != nil {
					taskHook = hk.MapTask
					if hk.MapEmit != nil {
						inner := emit
						emit = func(k K, v V) {
							hk.MapEmit(i)
							inner(k, v)
						}
					}
				}
				tw.SetState(telemetry.StateWorking)
			takeLoop:
				for !abort.Load() && ctx.Err() == nil {
					t0, t1, cls, ok := tq.take(mapperGroup[i])
					if !ok {
						break
					}
					st.AddClass(cls, uint64(t1-t0))
					tw.AddSteal(int(cls), t1-t0)
					stolen := cls != topology.StealLocal
					var endSteal func()
					if shard != nil && stolen {
						endSteal = shard.Span("steal", map[string]any{
							"tasks": t1 - t0, "class": cls.String(),
						})
					}
					for t := t0; t < t1; t++ {
						if abort.Load() || ctx.Err() != nil {
							if endSteal != nil {
								endSteal()
							}
							break takeLoop
						}
						lo, hi := tq.tasks[t][0], tq.tasks[t][1]
						if taskHook != nil {
							taskHook(i)
						}
						var end func()
						if shard != nil {
							end = shard.Span("task", map[string]any{"splits": hi - lo})
						}
						for s := lo; s < hi; s++ {
							spec.Map(spec.Splits[s], emit)
						}
						flush()
						if end != nil {
							end()
						}
						if stolen {
							st.RemoteExecuted++
							tw.AddRemoteExecuted(1)
						}
						if tw != nil {
							tw.AddTasks(1)
							tw.AddEmitted(emitted)
							emitted = 0
							pu, fp, sl := q.ProducerStats()
							tw.StoreProducer(pu, fp, sl)
						}
					}
					if endSteal != nil {
						endSteal()
					}
				}
			})
		}(i)
	}

	// Combiner pool: one slot per container. Untuned it stays at the
	// static size with QueueAssignment's split; tuned, the driver resizes
	// it within the resolved bounds.
	folds := make([]func([]pair[K, V]), maxCombiners)
	for j := range folds {
		c := containers[j]
		folds[j] = func(b []pair[K, V]) { c.UpdateBatch(b, spec.Combine) }
	}
	pool := StartCombiners(CombinerArgs[pair[K, V]]{
		Ctx:     ctx,
		Engine:  "ramr",
		Queues:  queues,
		Mirrors: mirrors,
		Folds:   folds,
		Initial: combiners,
		Batch:   cfg.BatchSize,
		Tuner:   tunerCfg,
		Plan:    plan,
		Tel:     tel,
		Hooks:   cfg.Hooks,
		Trace:   cfg.Trace,
		Abort:   &abort,
		Fail: func(err error) {
			firstErr.Set(err)
			trip()
		},
	})

	mapWG.Wait()
	pool.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// Every mapper's fold happened-before mapWG.Wait returned, so the
	// aggregate is stable here without further synchronization.
	stealMu.Lock()
	res.Steal = stealAgg
	stealMu.Unlock()
	// Fence the driver before reading its report (and before any error
	// return): no controller step can be in flight after StopTuner.
	pool.StopTuner()
	res.TunerReport = pool.TunerReport()
	// The invariant observer and the pre-reduce hook run before the
	// error checks: a failed run must still report per-queue drain state,
	// and a cancellation injected at the pre-reduce point must still be
	// honored by the ctx check below.
	if hk := cfg.Hooks; hk != nil && hk.QueueObserver != nil {
		for i, q := range queues {
			hk.QueueObserver(i, q.Drained(), q.Snapshot())
		}
	}
	cfg.Hooks.FirePreReduce()
	if err := firstErr.Get(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, q := range queues {
		res.QueueStats.Add(q.Snapshot())
	}

	// --- Reduce: identical to the baseline from here on. ---
	t0 = time.Now()
	merged, err := mr.MergeContainers(containers, spec.Combine)
	if err != nil {
		return nil, err
	}
	pairs, err := mr.ReduceAll(merged, spec.Reduce, mappers+combiners)
	if err != nil {
		return nil, err
	}
	res.Phases.Reduce = time.Since(t0)

	// --- Merge: parallel sort over the general-purpose pool. ---
	t0 = time.Now()
	mr.SortPairsParallel(pairs, spec.Less, mappers+combiners)
	res.Phases.Merge = time.Since(t0)

	res.Pairs = pairs
	if tel != nil {
		rep := tel.EndRun(res.Phases.SecondsByPhase())
		// A tuner-private telemetry is a clock, not a report the user
		// asked for; attach only when the user configured one.
		if cfg.Telemetry != nil {
			res.Telemetry = rep
		}
	}
	return res, nil
}

// ValidateGrant checks a CPU grant against the resolved machine: every id
// must name an existing logical CPU. Uniqueness and sign were already
// enforced by Config.Validate; this is the machine-dependent half, checked
// once per run before any resource is allocated.
func ValidateGrant(machine *topology.Machine, grant []int) error {
	n := machine.NumCPUs()
	for _, cpu := range grant {
		if cpu >= n {
			return fmt.Errorf("core: CPUGrant cpu %d out of range for %s (%d logical CPUs)", cpu, machine.Name, n)
		}
	}
	return nil
}

// mapperGroups assigns each mapper the locality-group index it draws
// tasks from: the group containing its pinned CPU, or round-robin for
// unpinned mappers. Steering goes through Machine.GroupOf because a CPU's
// Socket field is an OS label that need not be dense — using it directly
// as a group index would silently alias through the modulo in
// taskQueues.next and send mappers to remote groups' task queues.
func mapperGroups(machine *topology.Machine, plan Plan, mappers, groups int) []int {
	mg := make([]int, mappers)
	for i := range mg {
		mg[i] = i % groups
		if cpu := plan.MapperCPU[i]; cpu >= 0 {
			if g, ok := machine.GroupOf(cpu); ok {
				mg[i] = g
			}
		}
	}
	return mg
}

// groupDeque is one locality group's task store: a contiguous window
// [head, tail) of task ids, seeded once and only ever shrunk. The owning
// group's mappers take chunks from the head; thieves take halves from the
// tail, so the two ends contend only when the window is nearly empty.
type groupDeque struct {
	mu         sync.Mutex
	head, tail int
}

// taskQueues implements the map phase's task steering: one chunked deque
// per locality group plus the machine's precomputed distance-ranked victim
// order. Mappers drain their own deque in guided-self-scheduling chunks
// (amortizing the lock the way the old design amortized its atomic, but
// over whole batches); when the local deque empties and stealing is on,
// they steal half the remaining window from the nearest non-empty victim.
// Stolen batches are executed privately by the thief and never
// re-enqueued, which is what makes the conservation invariant exact:
// tasks stolen == tasks executed remotely. Only input-split task ids ever
// move between groups — SPSC queue ownership never does.
type taskQueues struct {
	deques    []groupDeque
	victims   [][]int                 // probe order per thief group
	class     [][]topology.StealClass // steal class per (thief, victim)
	tasks     [][2]int
	mappersIn []int // mappers drawing from each group, for chunk sizing
	steal     bool
}

// newTaskQueues seeds one deque per locality group with a contiguous block
// of tasks proportional to the mappers actually drawing from that group
// (largest-remainder rounding), not round-robin: under an asymmetric CPU
// grant a group holding one mapper gets one mapper's share of tasks, and a
// group holding none gets nothing — so the StealOff baseline terminates
// and the stealing path starts balanced instead of relying on steals to
// undo a skewed seed.
func newTaskQueues(tasks [][2]int, machine *topology.Machine, mappersIn []int, policy mr.StealPolicy) *taskQueues {
	groups := len(mappersIn)
	tq := &taskQueues{
		deques:    make([]groupDeque, groups),
		victims:   machine.VictimOrder(),
		class:     make([][]topology.StealClass, groups),
		tasks:     tasks,
		mappersIn: mappersIn,
		steal:     policy != mr.StealOff,
	}
	for g := 0; g < groups; g++ {
		tq.class[g] = make([]topology.StealClass, groups)
		for v := 0; v < groups; v++ {
			tq.class[g][v] = machine.GroupStealClass(g, v)
		}
	}
	shares := seedShares(len(tasks), mappersIn)
	off := 0
	for g := range tq.deques {
		tq.deques[g].head = off
		off += shares[g]
		tq.deques[g].tail = off
	}
	return tq
}

// seedShares splits total tasks across groups proportionally to weights
// using largest-remainder rounding (ties to the lower group index), so the
// shares always sum to total and a zero-weight group gets zero.
func seedShares(total int, weights []int) []int {
	shares := make([]int, len(weights))
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	if sumW == 0 {
		// No mapper draws from any group (impossible for a validated
		// config, which has >= 1 mapper); park everything in group 0.
		if len(shares) > 0 {
			shares[0] = total
		}
		return shares
	}
	assigned := 0
	rems := make([]int, len(weights))
	for g, w := range weights {
		shares[g] = total * w / sumW
		rems[g] = total * w % sumW
		assigned += shares[g]
	}
	for assigned < total {
		best := -1
		for g := range rems {
			if rems[g] > 0 && (best < 0 || rems[g] > rems[best]) {
				best = g
			}
		}
		if best < 0 {
			best = 0
		}
		shares[best]++
		rems[best] = 0
		assigned++
	}
	return shares
}

// chunkFor is the guided-self-scheduling chunk: half the remaining window
// divided evenly over the group's mappers, never below 1. Early takes move
// big batches (one lock acquisition for many tasks); the tail shrinks to
// single tasks so the last chunks still balance.
func chunkFor(rem, mappers int) int {
	if mappers < 1 {
		mappers = 1
	}
	n := rem / (2 * mappers)
	if n < 1 {
		n = 1
	}
	return n
}

// take returns the next batch of task ids [lo, hi) for a mapper in group
// g, plus the steal class of the source deque. ok is false only at global
// exhaustion (or local exhaustion under StealOff). Deques never refill, so
// a single pass over the victim order is a sound termination check: a
// deque observed empty stays empty.
func (tq *taskQueues) take(g int) (lo, hi int, class topology.StealClass, ok bool) {
	d := &tq.deques[g]
	d.mu.Lock()
	if rem := d.tail - d.head; rem > 0 {
		n := chunkFor(rem, tq.mappersIn[g])
		lo, hi = d.head, d.head+n
		d.head += n
		d.mu.Unlock()
		return lo, hi, topology.StealLocal, true
	}
	d.mu.Unlock()
	if !tq.steal {
		return 0, 0, topology.StealLocal, false
	}
	for _, v := range tq.victims[g] {
		dv := &tq.deques[v]
		dv.mu.Lock()
		if rem := dv.tail - dv.head; rem > 0 {
			n := (rem + 1) / 2
			lo, hi = dv.tail-n, dv.tail
			dv.tail -= n
			dv.mu.Unlock()
			return lo, hi, tq.class[g][v], true
		}
		dv.mu.Unlock()
	}
	return 0, 0, topology.StealLocal, false
}

// remaining returns the live task count across all deques (tests only).
func (tq *taskQueues) remaining() int {
	n := 0
	for g := range tq.deques {
		d := &tq.deques[g]
		d.mu.Lock()
		n += d.tail - d.head
		d.mu.Unlock()
	}
	return n
}
