package main

import (
	"fmt"
	"time"

	"ramr/internal/mr"
	"ramr/internal/workloads"
)

// The batch workload is the paper's own comparison (Figs. 8b/9b): a
// closed loop with one caller running a fixed rotation of the six Table I
// apps at HWL/Medium with the memory-intensive containers, each app on
// RAMR and then on Phoenix++, under the default mr.Config.

var batchEngines = []workloads.Engine{workloads.EngineRAMR, workloads.EnginePhoenix}

// batchApp is one app's job plus its set-up reference output.
type batchApp struct {
	job    *workloads.Job
	digest uint64
	pairs  int
}

// batchSetup generates the inputs and warms up each job on both engines;
// the Phoenix++ warm-up output is the reference every timed run must match.
func batchSetup(seed int64, class workloads.SizeClass, cfg mr.Config, chk *checker) ([]*batchApp, error) {
	var apps []*batchApp
	for i, app := range workloads.AppNames() {
		job, err := workloads.NewJob(app, workloads.HWL, class, workloads.StressContainer(app), seed+int64(i))
		if err != nil {
			return nil, err
		}
		ref, err := job.Run(workloads.EnginePhoenix, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up on Phoenix++: %w", app, err)
		}
		a := &batchApp{job: job, digest: ref.Digest, pairs: ref.Pairs}
		info, err := job.Run(workloads.EngineRAMR, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up on RAMR: %w", app, err)
		}
		a.matches(info, "RAMR warm-up", chk)
		apps = append(apps, a)
	}
	return apps, nil
}

// matches checks a run against the reference: digests for exact apps,
// the pair count for every app (KM is floating point and has no digest).
func (a *batchApp) matches(info *workloads.RunInfo, what string, chk *checker) bool {
	return chk.check(info.Digest == a.digest && info.Pairs == a.pairs,
		"batch %s %s: digest %016x pairs %d, want %016x pairs %d",
		a.job.App, what, info.Digest, info.Pairs, a.digest, a.pairs)
}

func runBatch(p plan) (*outcome, error) {
	class := workloads.Medium
	if p.small {
		class = workloads.Small
	}
	cfg := mr.DefaultConfig()
	out := newOutcome()
	var apps []*batchApp
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		a, err := batchSetup(p.seed, class, cfg, &out.chk)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		apps = a
	}

	var infos map[workloads.Engine][]*workloads.RunInfo
	perApp := map[string][]float64{}
	var jobMS []float64
	for k, ph := range p.phases {
		infos = map[workloads.Engine][]*workloads.RunInfo{}
		var rotations []float64
		jobs := 0
		start := time.Now()
		// Whole rotations only, so every phase weighs the apps alike. A
		// rotation's time is the primary latency, because the per-job
		// times of twelve different jobs form twelve separate clusters and
		// their median falls in the gap between two of them. Throughput is
		// the jobs of a rotation over the median rotation time.
		for len(rotations) == 0 || time.Since(start).Seconds() < ph.seconds {
			r0 := time.Now()
			for _, a := range apps {
				for _, eng := range batchEngines {
					out.attempted++
					tid := ph.tr.newTrace()
					root := ph.tr.begin(tid, 0, "bench", "job "+a.job.App+"/"+eng.String())
					t0 := time.Now()
					call := ph.tr.begin(tid, root.id(), "workloads", "Job.Run")
					info, err := a.job.Run(eng, cfg)
					call.end()
					if err != nil {
						root.end()
						out.failed++
						out.notes = append(out.notes, fmt.Sprintf("error: batch %s on %s: %v", a.job.App, eng, err))
						continue
					}
					ok := a.matches(info, eng.String(), &out.chk)
					d := ms(time.Since(t0))
					root.end()
					if !ok {
						continue
					}
					jobs++
					infos[eng] = append(infos[eng], info)
					if k == 0 {
						jobMS = append(jobMS, d)
						key := a.job.App + "." + eng.String()
						perApp[key] = append(perApp[key], d)
					}
				}
			}
			rotations = append(rotations, ms(time.Since(r0)))
		}
		perRotation := float64(jobs) / float64(len(rotations))
		out.endPhase(rotations, perRotation/(quantile(rotations, 0.5)/1000))
	}

	out.extra.set("jobs_per_s", "1/s", out.ops[0], len(jobMS))
	out.extra.dist("job_ms", "ms", jobMS)
	for k, xs := range perApp {
		out.extra.set("job_ms."+k+".p50", "ms", quantile(xs, 0.5), len(xs))
	}
	engineLayer(out.layer, "core", infos[workloads.EngineRAMR])
	engineLayer(out.layer, "phoenix", infos[workloads.EnginePhoenix])
	ramr := infos[workloads.EngineRAMR]
	var q mr.QueueStats
	var local, stolen float64
	var sleep []float64
	for _, in := range ramr {
		q.Pushes += in.Queue.Pushes
		q.FailedPush += in.Queue.FailedPush
		q.BatchCalls += in.Queue.BatchCalls
		q.EmptyPolls += in.Queue.EmptyPolls
		q.ShortPolls += in.Queue.ShortPolls
		sleep = append(sleep, float64(in.Queue.SleepMicros)/1000)
		local += float64(in.Steal.LocalTasks)
		stolen += float64(in.Steal.SocketTasks + in.Steal.RemoteTasks)
	}
	out.layer.set("spsc.failed_push_ratio", "ratio", q.FailedPushRate(), len(ramr))
	out.layer.set("spsc.short_poll_ratio", "ratio", q.ShortPollRate(), len(ramr))
	out.layer.set("spsc.sleep_ms", "ms", mean(sleep), len(sleep))
	out.layer.ratio("core.steal_ratio", stolen, local+stolen, len(ramr))
	return out, nil
}

// engineLayer sets one engine's phase medians from its runs.
func engineLayer(m metricSet, prefix string, infos []*workloads.RunInfo) {
	var mc, red, mrg []float64
	for _, in := range infos {
		mc = append(mc, ms(in.Phases.MapCombine))
		red = append(red, ms(in.Phases.Reduce))
		mrg = append(mrg, ms(in.Phases.Merge))
	}
	m.set(prefix+".mapcombine_ms.p50", "ms", quantile(mc, 0.5), len(mc))
	m.set(prefix+".reduce_ms.p50", "ms", quantile(red, 0.5), len(red))
	m.set(prefix+".merge_ms.p50", "ms", quantile(mrg, 0.5), len(mrg))
}
