package main

import (
	"fmt"
	"runtime"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/workloads"
)

// Layer replays time the layers the engines hide. Each batch app's own
// emitted pairs are recorded once by calling its exported Spec's Map, and
// then replayed through container UpdateBatch folds, container.Merge, and
// an SPSC ring (PushBatch/ConsumeBatch) with the engine's default slab
// and batch sizes. The inputs depend only on the seed, so two commits
// replay the same pairs and a fold or ring change shows in its own layer.

const replayReps = 5

var containerKinds = []container.Kind{container.KindHash, container.KindFixedHash, container.KindFixedArray}

// kindName names a container kind in metric names.
func kindName(k container.Kind) string {
	switch k {
	case container.KindHash:
		return "hash"
	case container.KindFixedHash:
		return "fixedhash"
	default:
		return "fixedarray"
	}
}

// replayApp is one app's recorded pair stream with its typed replays.
type replayApp struct {
	name  string
	pairs int
	// fold folds every pair into a fresh container of kind and returns
	// the time and the distinct keys; ok is false when the app has no
	// container of that kind.
	fold func(kind container.Kind) (d time.Duration, keys int, ok bool)
	// merge folds each half of the stream into its own container and
	// times merging one into the other, recording the merge as a span.
	merge func(tr *tracer) time.Duration
	// ring streams the pairs through one SPSC ring and returns the time
	// and the pairs the consumer received.
	ring func() (time.Duration, int)
}

func newReplayApp[S any, K comparable, V, R any](name string, specFor func(container.Kind) *mr.Spec[S, K, V, R], stress container.Kind, limit int) *replayApp {
	spec := specFor(stress)
	var kvs []container.KV[K, V]
	for _, s := range spec.Splits {
		spec.Map(s, func(k K, v V) {
			if len(kvs) < limit {
				kvs = append(kvs, container.KV[K, V]{K: k, V: v})
			}
		})
		if len(kvs) >= limit {
			break
		}
	}
	foldInto := func(c container.Container[K, V], xs []container.KV[K, V]) {
		for i := 0; i < len(xs); i += mr.DefaultBatchSize {
			c.UpdateBatch(xs[i:min(i+mr.DefaultBatchSize, len(xs))], spec.Combine)
		}
	}
	a := &replayApp{name: name, pairs: len(kvs)}
	a.fold = func(kind container.Kind) (time.Duration, int, bool) {
		c := specFor(kind).NewContainer()
		if c.Kind() != kind {
			return 0, 0, false
		}
		start := time.Now()
		foldInto(c, kvs)
		return time.Since(start), c.Len(), true
	}
	a.merge = func(tr *tracer) time.Duration {
		dst, src := spec.NewContainer(), spec.NewContainer()
		foldInto(dst, kvs[:len(kvs)/2])
		foldInto(src, kvs[len(kvs)/2:])
		start := time.Now()
		container.Merge(dst, src, spec.Combine)
		end := time.Now()
		tr.record(tr.newTrace(), 0, "container", "Merge "+name, start, end)
		return end.Sub(start)
	}
	a.ring = func() (time.Duration, int) {
		q := spsc.MustNew[container.KV[K, V]](spsc.DefaultCapacity, spsc.WaitSleep)
		got := 0
		done := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			count := func(xs []container.KV[K, V]) { got += len(xs) }
			for {
				if q.ConsumeBatch(mr.DefaultBatchSize, q.Closed(), count) == 0 {
					if q.Drained() {
						return
					}
					runtime.Gosched()
				}
			}
		}()
		for i := 0; i < len(kvs); i += mr.DefaultEmitBatch {
			q.PushBatch(kvs[i:min(i+mr.DefaultEmitBatch, len(kvs))])
		}
		q.Close()
		<-done
		return time.Since(start), got
	}
	return a
}

// replayApps records the pair streams of the six batch apps.
func replayApps(seed int64, class workloads.SizeClass, limit int) ([]*replayApp, error) {
	var apps []*replayApp
	for i, app := range workloads.AppNames() {
		in, err := workloads.Input(app, workloads.HWL, class)
		if err != nil {
			return nil, err
		}
		pr, s, stress := in.Params, seed+int64(i), workloads.StressContainer(app)
		var a *replayApp
		switch app {
		case "HG":
			splits := workloads.GeneratePixels(pr.Bytes, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[[]byte, int, int, int] { return workloads.HistogramSpec(splits, k) }, stress, limit)
		case "KM":
			km := workloads.GenerateKMeans(pr.Points, pr.Dims, pr.K, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[[2]int, int, float64, float64] { return workloads.KMeansSpec(km, k) }, stress, limit)
		case "LR":
			splits := workloads.GenerateLRPoints(pr.Points, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[[]workloads.LRPoint, int, int64, int64] {
				return workloads.LinRegSpec(splits, k)
			}, stress, limit)
		case "MM":
			mm := workloads.GenerateMM(pr.RowsA, pr.Inner, pr.ColsB, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[workloads.MMTile, int, int64, int64] {
				return workloads.MatMulSpec(mm, k)
			}, stress, limit)
		case "PCA":
			pca := workloads.GeneratePCA(pr.N, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[[2]int, int, int64, int64] { return workloads.PCASpec(pca, k) }, stress, limit)
		case "WC":
			splits := workloads.GenerateText(pr.Bytes, s)
			a = newReplayApp(app, func(k container.Kind) *mr.Spec[string, string, int, int] { return workloads.WordCountSpec(splits, k) }, stress, limit)
		default:
			return nil, fmt.Errorf("no replay for app %s", app)
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// runReplays measures the container, spsc and input-generation layers.
func runReplays(seed int64, small bool, tr *tracer) (*outcome, error) {
	class, limit, genBytes := workloads.Medium, 1<<19, 2_000_000
	if small {
		class, limit, genBytes = workloads.Small, 1<<15, 500_000
	}
	out := newOutcome()
	apps, err := replayApps(seed, class, limit)
	if err != nil {
		return nil, err
	}
	foldNs := map[container.Kind][]float64{}
	var mergeMS, ringNs, genMS []float64
	for rep := 0; rep < replayReps; rep++ {
		for _, kind := range containerKinds {
			var d time.Duration
			pairs := 0
			for _, a := range apps {
				sp := tr.begin(tr.newTrace(), 0, "container", "UpdateBatch "+a.name+"/"+kindName(kind))
				t, keys, ok := a.fold(kind)
				sp.end()
				if !ok {
					continue
				}
				if rep == 0 {
					_, ref, _ := a.fold(workloads.StressContainer(a.name))
					out.chk.check(keys == ref, "replay %s: %s fold has %d keys, stress container %d", a.name, kindName(kind), keys, ref)
				}
				d += t
				pairs += a.pairs
			}
			out.attempted++
			foldNs[kind] = append(foldNs[kind], float64(d.Nanoseconds())/float64(pairs))
		}
		var md, rd time.Duration
		pairs := 0
		for _, a := range apps {
			md += a.merge(tr)
			sp := tr.begin(tr.newTrace(), 0, "spsc", "PushBatch/ConsumeBatch "+a.name)
			t, got := a.ring()
			sp.end()
			out.chk.check(got == a.pairs, "replay %s: ring delivered %d of %d pairs", a.name, got, a.pairs)
			rd += t
			pairs += a.pairs
		}
		out.attempted += 2
		mergeMS = append(mergeMS, ms(md))
		ringNs = append(ringNs, float64(rd.Nanoseconds())/float64(pairs))

		sp := tr.begin(tr.newTrace(), 0, "workloads", "GenerateText+GeneratePixels")
		start := time.Now()
		workloads.GenerateText(genBytes, seed)
		workloads.GeneratePixels(genBytes, seed)
		sp.end()
		genMS = append(genMS, ms(time.Since(start))/(2*float64(genBytes)/1e6))
		out.attempted++
	}
	m := out.layer
	for _, kind := range containerKinds {
		xs := foldNs[kind]
		m.set("container.fold_ns_per_pair."+kindName(kind), "ns", quantile(xs, 0.5), len(xs))
	}
	m.set("container.merge_ms", "ms", quantile(mergeMS, 0.5), len(mergeMS))
	m.set("spsc.ns_per_pair", "ns", quantile(ringNs, 0.5), len(ringNs))
	m.set("workloads.gen_ms_per_mb", "ms/MB", quantile(genMS, 0.5), len(genMS))
	return out, nil
}
