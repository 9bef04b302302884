// The combiner pool: the one way combiners run, for batch jobs and for
// resident streaming sessions alike. Each slot pops batches from an
// assigned set of SPSC rings and folds them into private state through
// its own fold callback (§III, Fig. 2, §IV-C). Without a tuner config the
// pool is never resized and its split is QueueAssignment, the static
// mapper-to-combiner ratio of §III-B. With one it is elastic: slots grow
// and shrink while the map phase runs, and a deterministic controller
// (internal/tuner) re-tunes the consume batch size and the producer sleep
// backoff from live telemetry deltas.
//
// Correctness rests on one lock discipline: the SPSC queues tolerate
// exactly one consumer at a time, and the consumer side caches the head
// index, so handing a queue from combiner A to combiner B needs both
// exclusivity and a happens-before edge from A's last pop to B's first.
// The pool provides both with a single RWMutex: a combiner holds the read
// lock for one whole polling round over its assigned queues, and every
// reassignment (grow, shrink, retire) takes the write lock — so no round
// can straddle an ownership change, and the lock ordering publishes A's
// consumer-side cache to B. Reassignment is rare (once per controller
// epoch at most), so the RLock is effectively uncontended.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/affinity"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/trace"
	"ramr/internal/tuner"
)

// combinerIdle is how long a combiner sleeps when one full polling round
// over its assigned queues consumed nothing; long enough to free the SMT
// sibling for its mapper, short enough not to add visible latency.
const combinerIdle = 20 * time.Microsecond

// combinerPool owns the queue→combiner-slot assignment. Slots
// 0..active-1 share the live queues in QueueAssignment's contiguous
// ranges over mapper order; slots beyond active are parked with no
// queues. Drained queues retire out of the assignment; when the last one
// retires, done closes and every slot exits.
type combinerPool[T any] struct {
	queues []*spsc.Queue[T]
	// batch is the consume batch: the one knob read on the combiner hot
	// loop, so the driver stores it and each round loads it.
	batch atomic.Int64

	mu      sync.RWMutex
	live    []int   // unretired queue indices, mapper order
	slots   [][]int // per slot: owned queue indices
	active  int
	frozen  bool          // abort: assignment pinned for the drain
	change  chan struct{} // closed and replaced on every reassignment
	done    chan struct{} // closed when every queue has retired
	retired []bool

	// guards are optional per-queue single-consumer tokens, enabled only
	// for instrumented runs (Hooks != nil): each consume round CASes the
	// token of every queue it touches, so any violation of the
	// one-consumer-per-ring invariant is detected, not silently raced.
	guards      []atomic.Int32
	guarded     bool
	onViolation func(queue, holder, claimant int)
}

func newCombinerPool[T any](queues []*spsc.Queue[T], slots, active int, guarded bool, onViolation func(queue, holder, claimant int)) *combinerPool[T] {
	p := &combinerPool[T]{
		queues:      queues,
		live:        make([]int, len(queues)),
		slots:       make([][]int, slots),
		active:      active,
		change:      make(chan struct{}),
		done:        make(chan struct{}),
		retired:     make([]bool, len(queues)),
		guarded:     guarded,
		onViolation: onViolation,
	}
	for i := range p.live {
		p.live[i] = i
	}
	if guarded {
		p.guards = make([]atomic.Int32, len(queues))
	}
	p.splitLocked()
	return p
}

// splitLocked deals the live queues over the active slots in
// QueueAssignment's contiguous ranges and clears the rest. Before any
// retire, live is every queue in mapper order, so slot j owns exactly the
// mappers the pinning plan placed combiner j beside. Callers hold the
// write lock.
func (p *combinerPool[T]) splitLocked() {
	for j := range p.slots {
		p.slots[j] = nil
	}
	n := min(max(p.active, 1), len(p.slots))
	for j, rng := range QueueAssignment(len(p.live), n) {
		p.slots[j] = append([]int(nil), p.live[rng[0]:rng[1]]...)
	}
}

// broadcastLocked wakes every parked slot so it re-reads its assignment.
func (p *combinerPool[T]) broadcastLocked() {
	close(p.change)
	p.change = make(chan struct{})
}

// Resize sets the active slot count and redistributes the live queues.
// No-op once frozen (abort) or when n is unchanged or out of range.
func (p *combinerPool[T]) Resize(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen || n == p.active || n < 1 || n > len(p.slots) {
		return
	}
	p.active = n
	p.splitLocked()
	p.broadcastLocked()
}

// retire removes a drained queue from the assignment. Only the slot that
// observed Drained calls it, after releasing its read lock. Drained is
// terminal, so the re-check under the write lock can only confirm it.
func (p *combinerPool[T]) retire(qi int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retired[qi] || !p.queues[qi].Drained() {
		return
	}
	p.retired[qi] = true
	for j := range p.slots {
		p.slots[j] = removeIndex(p.slots[j], qi)
	}
	p.live = removeIndex(p.live, qi)
	if len(p.live) == 0 {
		select {
		case <-p.done:
		default:
			close(p.done)
		}
	}
}

// freeze pins the assignment for the abort drain and returns slot j's
// queues. The first caller flips the flag and wakes parked slots so they
// observe the abort; after freeze no Resize can move a queue, so each
// live queue has exactly one slot responsible for discard-draining it.
func (p *combinerPool[T]) freeze(j int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.frozen {
		p.frozen = true
		p.broadcastLocked()
	}
	return append([]int(nil), p.slots[j]...)
}

// drainAbort is the abort path's release valve: freeze the assignment,
// discard-drain this slot's queues without touching user code, then
// retire them. A producer blocked on a full ring is freed only by its
// consumer, so a doomed combiner must keep popping — and discarding —
// until every one of its producers has finished and closed.
func (p *combinerPool[T]) drainAbort(j int) {
	mine := p.freeze(j)
	for {
		done := true
		for _, qi := range mine {
			if q := p.queues[qi]; !q.Drained() {
				done = false
				q.DiscardBatch(p.batchNow())
			}
		}
		if done {
			break
		}
		runtime.Gosched()
	}
	for _, qi := range mine {
		p.retire(qi)
	}
}

// batchNow is the consume batch for the next round, clamped to the ring
// capacity: a batch larger than the ring could never fill while a
// producer is blocked on a full queue, deadlocking the pipeline.
func (p *combinerPool[T]) batchNow() int {
	return min(max(int(p.batch.Load()), 1), p.queues[0].Cap())
}

// acquire/release are the single-consumer guard. With guards off they
// cost nothing; with guards on a failed CAS means two combiners touched
// one ring concurrently — the invariant the pool lock must make
// impossible.
func (p *combinerPool[T]) acquire(qi, j int) bool {
	if !p.guarded {
		return true
	}
	if !p.guards[qi].CompareAndSwap(0, int32(j)+1) {
		if p.onViolation != nil {
			p.onViolation(qi, int(p.guards[qi].Load())-1, j)
		}
		return false
	}
	return true
}

func (p *combinerPool[T]) release(qi int) {
	if p.guarded {
		p.guards[qi].Store(0)
	}
}

func removeIndex(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// CombinerArgs is everything StartCombiners needs from an engine. Beyond
// the data each engine hands over (rings, folds, plan, labels), a batch
// run and a streaming session differ only in ForceAfterIdle and Progress.
type CombinerArgs[T any] struct {
	// Ctx parents the workers' pprof labels; Engine names the engine in
	// those labels and in panic errors.
	Ctx    context.Context
	Engine string
	Queues []*spsc.Queue[T]
	// Mirrors is indexed like Queues; entries are nil without telemetry.
	Mirrors []*telemetry.QueueMirror
	// Folds holds one fold per slot: len(Folds) is the pool's ceiling.
	Folds []func([]T)
	// Initial is the starting number of active slots; Batch the starting
	// consume batch.
	Initial int
	Batch   int
	// Tuner, when non-nil, is a config already bounded by ResolveTuner:
	// a controller driven from Tel's sampler resizes the pool and re-tunes
	// batch and backoff. Nil means no driver and no resizes.
	Tuner *tuner.Config
	Plan  Plan
	Tel   *telemetry.Telemetry
	// Hooks, when set, also arms the single-consumer guards.
	Hooks *mr.Hooks
	Trace *trace.Collector
	// Abort is polled every round; once set, slots discard-drain. Fail
	// records a worker error and trips Abort.
	Abort *atomic.Bool
	Fail  func(error)

	// ForceAfterIdle makes the round after an idle one consume short
	// blocks: a stream's rings stay open across input lulls, and buffered
	// pairs must reach their containers for a seal. Batch rings close when
	// the map phase ends, so batch slots wait for full blocks (§IV-C).
	ForceAfterIdle bool
	// Progress, when set, runs after every round that consumed something.
	Progress func()
}

// Combiners is a running combiner pool.
type Combiners struct {
	wg     sync.WaitGroup
	driver *tunerDriver
}

// Wait blocks until every slot has exited: all queues drained, or the
// abort drain finished.
func (c *Combiners) Wait() { c.wg.Wait() }

// StopTuner fences the tuner driver: no controller step is in flight
// after it returns. No-op for an untuned pool.
func (c *Combiners) StopTuner() {
	if c.driver != nil {
		c.driver.stop()
	}
}

// TunerReport returns the controller's decision log, or nil untuned.
func (c *Combiners) TunerReport() *tuner.Report {
	if c.driver == nil {
		return nil
	}
	return c.driver.report()
}

// StartCombiners spawns one goroutine per fold slot (the first a.Initial
// consuming, the rest parked until a resize hands them queues) and, when
// a.Tuner is set, wires the tuner driver into the telemetry sampler.
func StartCombiners[T any](a CombinerArgs[T]) *Combiners {
	onViolation := func(queue, holder, claimant int) {
		a.Fail(fmt.Errorf("core: single-consumer invariant violated: queue %d consumed by combiner %d while owned by %d", queue, claimant, holder))
	}
	pool := newCombinerPool(a.Queues, len(a.Folds), a.Initial, a.Hooks != nil, onViolation)
	pool.batch.Store(int64(a.Batch))
	c := &Combiners{}
	if a.Tuner != nil {
		c.driver = startDriver(&a, pool)
	}
	for j := range a.Folds {
		c.wg.Add(1)
		go func(j int) {
			defer c.wg.Done()
			labels := pprof.Labels("engine", a.Engine, "role", "combiner", "worker", strconv.Itoa(j))
			pprof.Do(a.Ctx, labels, func(context.Context) {
				runCombinerSlot(&a, pool, j)
			})
		}(j)
	}
	return c
}

// runCombinerSlot is one combiner slot's life: consume rounds over the
// currently assigned queues under the pool's read lock, park on the
// resume gate when the assignment is empty, retire drained queues, and
// discard-drain on abort.
func runCombinerSlot[T any](a *CombinerArgs[T], pool *combinerPool[T], j int) {
	var tw *telemetry.Worker
	if a.Tel != nil {
		tw = a.Tel.RegisterWorker("combiner", j)
	}
	defer tw.SetState(telemetry.StateDone)
	defer func() {
		if r := recover(); r == nil {
			return
		} else {
			a.Fail(&mr.PanicError{Engine: a.Engine, Worker: fmt.Sprintf("combine worker %d", j), Value: r})
		}
		pool.drainAbort(j)
	}()
	if cpu := a.Plan.CombinerCPU[j]; cpu >= 0 && affinity.Supported() {
		unpin, _ := affinity.PinSelf(cpu)
		defer unpin()
	}
	var shard *trace.Shard
	if a.Trace != nil {
		shard = a.Trace.Shard(fmt.Sprintf("combiner-%d", j))
	}
	apply := a.Folds[j]
	if tw != nil {
		inner := apply
		apply = func(batch []T) {
			tw.AddCombined(len(batch))
			tw.AddBatches(1)
			inner(batch)
		}
	}
	var drainHook func(int)
	if hk := a.Hooks; hk != nil {
		drainHook = hk.CombineDrain
		if hk.CombineBatch != nil {
			inner := apply
			apply = func(batch []T) {
				hk.CombineBatch(j)
				inner(batch)
			}
		}
	}
	// state stores only on transitions so a polling round costs no
	// atomic traffic while the state is stable.
	curState := telemetry.StateIdle
	setState := func(s telemetry.State) {
		if s != curState {
			curState = s
			tw.SetState(s)
		}
	}
	draining := false
	idleRounds := 0

	// round runs one polling pass over the slot's assignment while
	// holding the read lock (the ownership critical section). The
	// deferred unlock keeps a user-code panic from wedging the pool:
	// the recover path above takes the write lock to freeze.
	round := func() (consumed int, toRetire []int, parked bool, change, done chan struct{}) {
		pool.mu.RLock()
		defer pool.mu.RUnlock()
		mine := pool.slots[j]
		if len(mine) == 0 {
			return 0, nil, true, pool.change, pool.done
		}
		b := pool.batchNow()
		force := a.ForceAfterIdle && idleRounds > 0
		var end func()
		if shard != nil {
			end = shard.Span("consume", nil)
		}
		for _, qi := range mine {
			q := a.Queues[qi]
			if !pool.acquire(qi, j) {
				continue
			}
			// While the producer is live, wait for full blocks; once it
			// closed, force-drain the tail.
			closed := q.Closed()
			if closed && !draining {
				draining = true
				if drainHook != nil {
					drainHook(j)
				}
			}
			consumed += q.ConsumeBatch(b, force || closed, apply)
			if q.Drained() {
				toRetire = append(toRetire, qi)
			}
			a.Mirrors[qi].StoreConsumer(q.ConsumerStats())
			pool.release(qi)
		}
		if end != nil && consumed > 0 {
			end()
		}
		return consumed, toRetire, false, nil, nil
	}

	for {
		// Once any worker tripped abort the run is doomed: stop feeding
		// user code and discard-drain so producers blocked on full rings
		// unwedge without burning user-code cycles.
		if a.Abort.Load() {
			pool.drainAbort(j)
			return
		}
		consumed, toRetire, parked, change, done := round()
		if parked {
			setState(telemetry.StateIdle)
			select {
			case <-change:
			case <-done:
				return
			}
			continue
		}
		for _, qi := range toRetire {
			pool.retire(qi)
		}
		if consumed == 0 {
			idleRounds++
			setState(telemetry.StateIdle)
			if idleRounds < 4 {
				runtime.Gosched()
			} else {
				time.Sleep(combinerIdle)
			}
			continue
		}
		idleRounds = 0
		if draining {
			setState(telemetry.StateDraining)
		} else {
			setState(telemetry.StateWorking)
		}
		if a.Progress != nil {
			a.Progress()
		}
	}
}

// ResolveTuner fills the machine-dependent bounds of a user tuner config:
// the pool is bounded by the mapper count (a ring has at most one
// consumer, so extra combiners could never own a queue) and the batch by
// the ring capacity (the same deadlock clamp batchNow applies).
func ResolveTuner(tcfg tuner.Config, mappers, queueCap int) tuner.Config {
	if tcfg.MaxCombiners <= 0 || tcfg.MaxCombiners > mappers {
		tcfg.MaxCombiners = mappers
	}
	if tcfg.MinCombiners <= 0 {
		tcfg.MinCombiners = 1
	}
	if tcfg.MinCombiners > tcfg.MaxCombiners {
		tcfg.MinCombiners = tcfg.MaxCombiners
	}
	maxB := tcfg.MaxBatch
	if maxB <= 0 {
		maxB = tuner.DefaultMaxBatch
	}
	if maxB > queueCap {
		maxB = queueCap
	}
	tcfg.MaxBatch = maxB
	minB := tcfg.MinBatch
	if minB <= 0 {
		minB = tuner.DefaultMinBatch
	}
	if minB > maxB {
		minB = maxB
	}
	tcfg.MinBatch = minB
	return tcfg
}

// tunerDriver adapts telemetry into the controller's Signals and applies
// its Decisions. It runs on the sampler goroutine via the telemetry
// observer; stop() fences it so the report can be read race-free.
type tunerDriver struct {
	mu      sync.Mutex
	stopped bool

	ctrl  *tuner.Controller
	tel   *telemetry.Telemetry
	apply func(tuner.Decision)

	epochTicks int
	ticks      int
	occ        []float64 // sampled occupancies within the current epoch
	imb        []float64 // per-tick imbalance ratios within the current epoch
	caps       []float64 // per-queue capacity, indexed like Sample.Depths
	prev       telemetry.Counters
}

// startDriver builds the controller for a tuned pool and registers its
// driver as the telemetry observer. a.Tel must be non-nil: the sampler is
// the controller's epoch clock.
func startDriver[T any](a *CombinerArgs[T], pool *combinerPool[T]) *tunerDriver {
	initial := tuner.Settings{
		Combiners: a.Initial,
		Batch:     pool.batchNow(),
		Backoff:   spsc.DefaultSleepCap,
	}
	ctrl := tuner.NewController(*a.Tuner, initial)
	var tunerShard *trace.Shard
	if a.Trace != nil {
		tunerShard = a.Trace.Shard("tuner")
	}
	cur := initial
	d := &tunerDriver{
		ctrl:       ctrl,
		tel:        a.Tel,
		epochTicks: ctrl.EpochTicks(),
		caps:       make([]float64, len(a.Queues)),
	}
	for i, q := range a.Queues {
		d.caps[i] = float64(q.Cap())
	}
	d.apply = func(dec tuner.Decision) {
		if dec.Settings.Combiners != cur.Combiners {
			cur.Combiners = dec.Settings.Combiners
			pool.Resize(cur.Combiners)
		}
		pool.batch.Store(int64(dec.Settings.Batch))
		if dec.Settings.Backoff != cur.Backoff {
			cur.Backoff = dec.Settings.Backoff
			for _, q := range a.Queues {
				q.SetSleepCap(cur.Backoff)
			}
		}
		if tunerShard != nil {
			tunerShard.Span("epoch", map[string]any{
				"action":    dec.Action,
				"combiners": dec.Settings.Combiners,
				"batch":     dec.Settings.Batch,
				"backoff":   dec.Settings.Backoff.String(),
			})()
		}
	}
	a.Tel.SetObserver(d.observe)
	return d
}

// observe is the telemetry observer: accumulate occupancy, and at each
// epoch boundary form the Signals delta, advance the controller and apply
// its decision.
func (d *tunerDriver) observe(s telemetry.Sample) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	for i, depth := range s.Depths {
		if i < len(d.caps) && d.caps[i] > 0 {
			d.occ = append(d.occ, float64(depth)/d.caps[i])
		}
	}
	if len(s.Depths) > 0 {
		d.imb = append(d.imb, s.Imbalance)
	}
	d.ticks++
	if d.ticks < d.epochTicks {
		return
	}
	now := d.tel.CountersNow()
	sig := tuner.Signals{
		OccP90:         p90(d.occ),
		QueueImbalance: p90(d.imb),
		CombinedPairs:  now.Combined - d.prev.Combined,
		Ticks:          d.ticks,
	}
	if dp := (now.Pushes - d.prev.Pushes) + (now.FailedPush - d.prev.FailedPush); dp > 0 {
		sig.FailedPushRate = float64(now.FailedPush-d.prev.FailedPush) / float64(dp)
	}
	if polls := (now.BatchCalls - d.prev.BatchCalls) + (now.EmptyPolls - d.prev.EmptyPolls) + (now.ShortPolls - d.prev.ShortPolls); polls > 0 {
		sig.ShortPollRate = float64(now.ShortPolls-d.prev.ShortPolls) / float64(polls)
	}
	d.prev = now
	d.ticks = 0
	d.occ = d.occ[:0]
	d.imb = d.imb[:0]
	d.apply(d.ctrl.Advance(sig))
}

// stop fences the driver: no Advance can be in flight after it returns,
// so report() is safe from any goroutine.
func (d *tunerDriver) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
}

func (d *tunerDriver) report() *tuner.Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Report()
}

// p90 returns the 90th percentile of vs (zero when empty). vs is reused
// by the caller; sorting in place is fine.
func p90(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[int(0.9*float64(len(vs)-1))]
}
