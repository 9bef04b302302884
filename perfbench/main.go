// Command perfbench is the repository benchmark: it runs one workload
// in-process against the real code (library calls, and httptest servers
// over the real ramrd and ramrc handlers), checks every output, and
// prints every metric with its unit and sample count. BENCHMARK.json
// declares batch, service and cluster; stream runs too, but only as a
// probe of traced runs (see predictions.json). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// declares; with -trace 1 they are its per-layer metrics, measured in a
// traced run whose spans are also written as Chrome-trace JSON.
//
// perfbench is a module of its own that replaces the repository module
// with its parent directory, so run.py builds it from the checkout's
// source. Usage, from the repository root:
//
//	python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0
//	python3 perfbench/run.py --selftest
//
// predictions.json records the held-out seed and, for each layer, the
// end-to-end metrics and workloads a change to it should move.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// plan is how one workload runs: its seed, the timed phases run back to
// back on one set-up, and how many times the set-up is repeated (the
// median is reported, so work moved into set-up shows).
type plan struct {
	seed   int64
	phases []phase
	setups int
	// small selects reduced sizes: self-test runs and the short probes
	// a traced run makes of the other workloads.
	small bool
}

// phase is one timed phase; tr is nil when the phase is untraced.
type phase struct {
	seconds float64
	tr      *tracer
}

// outcome is what a workload reports.
type outcome struct {
	setup []float64 // seconds per set-up
	// lat holds each phase's primary latency samples in ms; ops each
	// phase's completed operations per second.
	lat [][]float64
	ops []float64
	// rssMB is the peak resident set size when the first phase ended,
	// heapMB the heap still live then, after a forced collection.
	rssMB, heapMB float64
	// layer holds the per-layer metrics this workload owns, measured in
	// its last phase; extra the workload-specific end-to-end figures.
	layer     metricSet
	extra     metricSet
	attempted int
	failed    int
	chk       checker
	notes     []string
}

func newOutcome() *outcome { return &outcome{layer: metricSet{}, extra: metricSet{}} }

// endPhase records one phase's primary latency samples and throughput.
func (o *outcome) endPhase(lat []float64, opsPerSec float64) {
	if len(o.lat) == 0 {
		o.rssMB, o.heapMB = maxRSSMB(), liveHeapMB()
	}
	o.lat = append(o.lat, lat)
	o.ops = append(o.ops, opsPerSec)
}

// subWindows is how many equal slices a phase's throughput is measured
// over; the median slice is reported, so a transient stall of the host
// moves it less than a whole-phase mean.
const subWindows = 5

// medianRate splits [start, end) into subWindows equal slices and returns
// the median of their completion rates per second. With fewer than 3
// completions per slice it is the rate over the whole span.
func medianRate(done []time.Time, start, end time.Time) float64 {
	width := end.Sub(start) / subWindows
	if width <= 0 {
		return 0
	}
	if len(done) < 3*subWindows {
		return float64(len(done)) / end.Sub(start).Seconds()
	}
	counts := make([]float64, subWindows)
	for _, t := range done {
		i := int(t.Sub(start) / width)
		if i >= 0 && i < subWindows {
			counts[i]++
		}
	}
	return quantile(counts, 0.5) / width.Seconds()
}

type workloadFn func(plan) (*outcome, error)

var workloadOrder = []string{"batch", "service", "stream", "cluster"}

var workloadFns = map[string]workloadFn{
	"batch":   runBatch,
	"service": runService,
	"stream":  runStream,
	"cluster": runCluster,
}

// probeSeconds is how long a traced run probes each other workload for
// the per-layer metrics that workload owns.
const probeSeconds = 2

// benchSpec is the subset of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// result is one measured run.
type result struct {
	metrics   metricSet
	attempted int
	failed    int
	checks    int
	failures  []string
	extra     metricSet
	notes     []string
	samples   map[string]int
}

// measure runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics, replays, probes of the other workloads, trace file).
func measure(name string, seed int64, seconds float64, traced, small bool, outDir string) (*result, error) {
	fn, ok := workloadFns[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadOrder, ", "))
	}
	res := &result{metrics: metricSet{}, extra: metricSet{}, samples: map[string]int{}}
	absorb := func(w string, o *outcome) {
		res.attempted += o.attempted
		res.failed += o.failed + o.chk.failed
		res.checks += o.chk.run
		res.failures = append(res.failures, o.chk.first...)
		res.samples[w] = o.attempted
		for _, n := range o.notes {
			if w != name {
				n = w + ": " + n
			}
			res.notes = append(res.notes, n)
		}
	}
	if !traced {
		setups := 3
		if small {
			setups = 1
		}
		o, err := fn(plan{seed: seed, phases: []phase{{seconds: seconds}}, setups: setups, small: small})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		absorb(name, o)
		m := res.metrics
		m.set("setup_s", "s", quantile(o.setup, 0.5), len(o.setup))
		m.set("ops_per_s", "1/s", o.ops[0], len(o.lat[0]))
		// The high percentile is p75, not p90: with about a hundred
		// samples a run, p90 has ten beyond it and its spread across
		// seeds reached 0.2 on a 2-vCPU host, against 0.1 for p75.
		m.set("latency_ms.p50", "ms", sliceQuantile(o.lat[0], 0.5), len(o.lat[0]))
		m.set("latency_ms.p75", "ms", sliceQuantile(o.lat[0], 0.75), len(o.lat[0]))
		m.set("heap_live_mb", "MiB", o.heapMB, 1)
		res.extra.merge(o.extra)
		res.extra.set("max_rss_mb", "MiB", o.rssMB, 1)
		if err := writeSamples(outDir, name, seed, o); err != nil {
			return nil, err
		}
		return res, nil
	}

	tr := newTracer()
	half := seconds / 2
	o, err := fn(plan{seed: seed, phases: []phase{{seconds: half}, {seconds: half, tr: tr}}, setups: 1, small: small})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	absorb(name, o)
	m := res.metrics
	m.merge(o.layer)
	res.extra.merge(o.extra)
	u, t := sliceQuantile(o.lat[0], 0.5), sliceQuantile(o.lat[1], 0.5)
	m.set("trace.overhead_ms", "ms", t-u, len(o.lat[1]))
	m.ratio("trace.overhead_ratio", t-u, u, len(o.lat[1]))

	rp, err := runReplays(seed, small, tr)
	if err != nil {
		return nil, fmt.Errorf("replays: %w", err)
	}
	absorb("replay", rp)
	m.merge(rp.layer)

	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		po, err := workloadFns[other](plan{seed: seed, phases: []phase{{seconds: probeSeconds, tr: tr}}, setups: 1, small: true})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", other, err)
		}
		absorb("probe."+other, po)
		m.merge(po.layer)
	}

	spans := tr.snapshot()
	for layer, xs := range selfTimes(spans) {
		m.set("trace.self_ms."+layer, "ms", quantile(xs, 0.5), len(xs))
	}
	m.set("trace.spans", "count", float64(len(spans)), len(spans))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.notes = append(res.notes, "trace file: "+path)
	return res, nil
}

// writeSamples saves each phase's primary latency samples, in completion
// order, for offline analysis of the run.
func writeSamples(outDir, name string, seed int64, o *outcome) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"latency_ms": o.lat, "ops_per_s": o.ops, "setup_s": o.setup})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("samples-%s-%d.json", name, seed)), b, 0o644)
}

// report prints the human-readable record and returns the declared
// metrics of the mode, failing when one was not produced.
func report(spec *benchSpec, res *result, name string, seed int64, seconds float64, traced bool) (map[string]jsonMetric, error) {
	decl := spec.EndToEnd
	if traced {
		decl = spec.PerLayer
	}
	host := hostRecord()
	rec := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"host": host, "samples": res.samples, "checks": res.checks,
	}
	b, _ := json.Marshal(rec) // a map of plain values always encodes
	fmt.Printf("run %s\n", b)
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Printf("check failed: %s\n", f)
	}
	printSet("metric", res.metrics)
	printSet("figure", res.extra)

	out := map[string]jsonMetric{}
	var missing []string
	for _, d := range decl {
		v, ok := res.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, BENCHMARK.json declares %q", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = jsonMetric{Value: v.Value, Unit: v.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("declared metrics not produced: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func printSet(kind string, m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		fmt.Printf("%s %-38s %14.4f %-6s n=%d\n", kind, k, v.Value, v.Unit, v.N)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// hostRecord fingerprints the host and the source tree measured.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git when the checkout is a repository.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return h
}

// sourceDigest hashes every Go source and module file of the checkout,
// so runs can be matched to the code measured without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// selfTest runs every workload at small sizes, untraced and traced, and
// checks that every declared metric is emitted and every check runs.
func selfTest(spec *benchSpec, seed int64, outDir string) error {
	var problems []string
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w.Name, seed, 1, traced, true, outDir)
			if err != nil {
				return err
			}
			if _, err := report(spec, res, w.Name, seed, 1, traced); err != nil {
				problems = append(problems, fmt.Sprintf("%s trace=%t: %v", w.Name, traced, err))
			}
			if res.checks == 0 {
				problems = append(problems, fmt.Sprintf("%s trace=%t: no correctness check ran", w.Name, traced))
			}
			for ws, n := range res.samples {
				if n == 0 {
					problems = append(problems, fmt.Sprintf("%s trace=%t: %s attempted nothing", w.Name, traced, ws))
				}
			}
			if res.failed > 0 {
				problems = append(problems, fmt.Sprintf("%s trace=%t: %d failed", w.Name, traced, res.failed))
			}
		}
	}
	if len(problems) > 0 {
		return errors.New("self-test failed:\n  " + strings.Join(problems, "\n  "))
	}
	fmt.Println("self-test ok: every declared metric emitted, every check ran")
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 25, "length of the timed phase")
		traceOn  = flag.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
		self     = flag.Bool("selftest", false, "run every workload at small sizes and check every metric and check")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		outDir   = flag.String("out", ".bench_out", "directory for trace files")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *self {
		if err := selfTest(spec, *seed, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	traced := *traceOn == 1
	res, err := measure(*workload, *seed, *seconds, traced, false, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics, err := report(spec, res, *workload, *seed, *seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(finalLine{
		Correct: res.failed == 0 && res.checks > 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}
