package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/tuner"
)

// closedQueues builds n tiny drained-on-close queues for pool unit tests.
func closedQueues(n int) []*spsc.Queue[pair[int, int]] {
	qs := make([]*spsc.Queue[pair[int, int]], n)
	for i := range qs {
		q, err := spsc.New[pair[int, int]](8, spsc.WaitSleep)
		if err != nil {
			panic(err)
		}
		qs[i] = q
	}
	return qs
}

// checkPartition asserts every live queue is owned by exactly one slot
// and no slot beyond active owns anything.
func checkPartition[T any](t *testing.T, p *combinerPool[T]) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	seen := map[int]int{}
	for j, s := range p.slots {
		if j >= p.active && len(s) > 0 {
			t.Fatalf("parked slot %d owns queues %v (active=%d)", j, s, p.active)
		}
		for _, qi := range s {
			if prev, dup := seen[qi]; dup {
				t.Fatalf("queue %d owned by slots %d and %d", qi, prev, j)
			}
			seen[qi] = j
		}
	}
	if len(seen) != len(p.live) {
		t.Fatalf("%d queues assigned, %d live", len(seen), len(p.live))
	}
	for _, qi := range p.live {
		if _, ok := seen[qi]; !ok {
			t.Fatalf("live queue %d unowned", qi)
		}
	}
}

// TestElasticPoolPartition: the split, every resize, and every retire
// must preserve the exactly-one-owner-per-live-queue invariant, and the
// done gate must close only when the last queue retires.
func TestElasticPoolPartition(t *testing.T) {
	qs := closedQueues(7)
	p := newCombinerPool(qs, 4, 2, false, nil)
	checkPartition(t, p)

	for _, n := range []int{4, 1, 3, 4, 2} {
		p.Resize(n)
		if p.active != n {
			t.Fatalf("active = %d after Resize(%d)", p.active, n)
		}
		checkPartition(t, p)
	}

	// Out-of-range resizes are ignored.
	p.Resize(0)
	p.Resize(99)
	if p.active != 2 {
		t.Fatalf("bad resize changed active to %d", p.active)
	}

	// Retire requires Drained: close each queue (empty → drained), then
	// retire one by one; done must close exactly at the last.
	for i, q := range qs {
		q.Close()
		p.retire(i)
		checkPartition(t, p)
		select {
		case <-p.done:
			if i != len(qs)-1 {
				t.Fatalf("done closed after %d/%d retires", i+1, len(qs))
			}
		default:
			if i == len(qs)-1 {
				t.Fatal("done not closed after the last retire")
			}
		}
	}
	// Retire is idempotent.
	p.retire(0)
}

// TestElasticPoolRetireRequiresDrained: an undrained queue must survive a
// retire attempt.
func TestElasticPoolRetireRequiresDrained(t *testing.T) {
	qs := closedQueues(2)
	qs[0].Push(pair[int, int]{K: 1, V: 1})
	qs[0].Close() // closed but non-empty: not drained
	p := newCombinerPool(qs, 2, 2, false, nil)
	p.retire(0)
	if p.retired[0] {
		t.Fatal("undrained queue retired")
	}
	checkPartition(t, p)
}

// TestElasticPoolGuards: the single-consumer CAS guard fires the
// violation callback on overlapping acquire and stays silent on a clean
// acquire/release sequence.
func TestElasticPoolGuards(t *testing.T) {
	qs := closedQueues(1)
	var got [3]int
	fired := 0
	p := newCombinerPool(qs, 2, 1, true, func(q, h, c int) {
		got = [3]int{q, h, c}
		fired++
	})
	if !p.acquire(0, 0) {
		t.Fatal("clean acquire failed")
	}
	if p.acquire(0, 1) {
		t.Fatal("overlapping acquire succeeded")
	}
	if fired != 1 || got != [3]int{0, 0, 1} {
		t.Fatalf("violation report = %v (fired %d)", got, fired)
	}
	p.release(0)
	if !p.acquire(0, 1) {
		t.Fatal("acquire after release failed")
	}
	p.release(0)
}

// TestCombinerPoolInitialSplit: before any resize the pool's slots are
// exactly QueueAssignment's ranges in mapper order — the ranges the
// pinning plan placed each combiner beside — for every 1 <= C <= M <= 16.
func TestCombinerPoolInitialSplit(t *testing.T) {
	for m := 1; m <= 16; m++ {
		qs := closedQueues(m)
		for c := 1; c <= m; c++ {
			p := newCombinerPool(qs, c, c, false, nil)
			for j, rng := range QueueAssignment(m, c) {
				want := make([]int, 0, rng[1]-rng[0])
				for qi := rng[0]; qi < rng[1]; qi++ {
					want = append(want, qi)
				}
				if !slices.Equal(p.slots[j], want) {
					t.Fatalf("M=%d C=%d: slot %d owns %v, QueueAssignment gives %v", m, c, j, p.slots[j], want)
				}
			}
		}
	}
}

// TestCombinerPoolRunCorrectness: every way the pool runs — untuned or
// tuned (controller active, private telemetry), with or without Hooks
// arming the single-consumer guards, across M:C shapes that split
// unevenly — must produce exactly the sequentially computed result with
// exact conservation, attach a TunerReport only when tuned, and never
// attach a telemetry report the user did not ask for.
func TestCombinerPoolRunCorrectness(t *testing.T) {
	const splits, emits, keys = 60, 50, 23
	spec := countSpec(splits, emits, keys)
	want := make([]mr.Pair[int, int], keys)
	for k := range want {
		want[k].Key = k
	}
	for e := 0; e < splits*emits; e++ {
		want[e%keys].Value++
	}
	for _, shape := range [][2]int{{3, 2}, {5, 3}, {7, 2}} {
		for _, tuned := range []bool{false, true} {
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("M%d:C%d/tuned=%v/hooks=%v", shape[0], shape[1], tuned, hooked)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig()
					cfg.Mappers, cfg.Combiners = shape[0], shape[1]
					if tuned {
						cfg.Tuner = &tuner.Config{Seed: 1}
					}
					if hooked {
						cfg.Hooks = &mr.Hooks{CombineBatch: func(int) {}}
					}
					res, err := Run(spec, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(res.Pairs, want) {
						t.Fatalf("pairs differ from the sequential count:\n got %v\nwant %v", res.Pairs, want)
					}
					if res.QueueStats.Pushes != splits*emits || res.QueueStats.Pushes != res.QueueStats.Pops {
						t.Fatalf("queue stats: %+v", res.QueueStats)
					}
					if (res.TunerReport != nil) != tuned {
						t.Fatalf("TunerReport = %v for tuned=%v", res.TunerReport, tuned)
					}
					if res.Telemetry != nil {
						t.Fatal("private tuner telemetry leaked into Result.Telemetry")
					}
				})
			}
		}
	}
}

// TestElasticScheduleChurn: a scripted grow/shrink schedule with fast
// epochs churns ownership mid-run; the result must stay exact, the
// single-consumer guards silent (Hooks enables them), and the decision
// log must record the scripted resizes.
func TestElasticScheduleChurn(t *testing.T) {
	spec := countSpec(48, 200, 31)
	cfg := testConfig()
	cfg.Mappers = 4
	cfg.Combiners = 1
	cfg.TaskSize = 1
	cfg.Telemetry = telemetry.New()
	cfg.Telemetry.Interval = 40 * time.Microsecond
	cfg.Tuner = &tuner.Config{
		EpochTicks:   1,
		MaxCombiners: 4,
		Schedule:     []int{2, 4, 1, 3, 1, 4, 2},
	}
	// Hooks non-nil turns the consumer guards on; a sleepy task hook
	// stretches the map phase across many epochs so resizes land mid-run.
	cfg.Hooks = &mr.Hooks{MapTask: func(int) { time.Sleep(150 * time.Microsecond) }}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 48*200 {
		t.Fatalf("total = %d, want %d", total, 48*200)
	}
	rep := res.TunerReport
	if rep == nil || len(rep.Epochs) == 0 {
		t.Fatalf("no tuner epochs fired: %+v", rep)
	}
	for _, d := range rep.Epochs {
		if d.Settings.Combiners < 1 || d.Settings.Combiners > 4 {
			t.Fatalf("pool size out of bounds: %+v", d)
		}
	}
	if res.Telemetry == nil {
		t.Fatal("user-provided telemetry lost its report")
	}
}

// TestNilTunerSurface: with Tuner nil nothing tuner-related appears on
// the result — the untuned pool contract.
func TestNilTunerSurface(t *testing.T) {
	res, err := Run(countSpec(10, 20, 7), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TunerReport != nil {
		t.Fatal("static run attached a TunerReport")
	}
	if res.Telemetry != nil {
		t.Fatal("static run attached telemetry unasked")
	}
}
