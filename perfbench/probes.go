package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/nvct"
	"easycrash/internal/sim"
)

const (
	// probeReps is how often each per-layer probe repeats; its metric is
	// the median.
	probeReps = 5
	// reproSample is how many evenly spaced trial indices ReproTrial re-runs.
	reproSample = 8
	// replayMinAccesses is the fewest accesses one replay sample walks; short
	// traces are replayed several times per sample, each time cold.
	replayMinAccesses = 200_000
	// nvmBytes is the NVM capacity nvct gives every machine by default.
	nvmBytes = 64 << 20
)

// perLayer runs the probes of the traced run, each timed from outside
// around calls into one layer's public functions, and returns the per-layer
// metrics except the self times.
func (b *bench) perLayer(ctx context.Context, root int, res *result) (map[string]metric, error) {
	phase := b.tr.start("bench.probes", root)
	defer b.tr.end(phase)
	m := map[string]metric{}
	factory, err := apps.New(b.cfg.w.kernel, apps.ProfileTest)
	if err != nil {
		return nil, err
	}
	g := b.tester.Golden()

	// cachesim: the golden run's counters, and a cold replay of its trace.
	cs := g.CacheStats
	last := len(cs.Hits) - 1
	m["cachesim.l1_hit_rate"] = metric{hitRate(cs, 0), "frac"}
	m["cachesim.l2_hit_rate"] = metric{hitRate(cs, 1), "frac"}
	m["cachesim.llc_hit_rate"] = metric{hitRate(cs, last), "frac"}
	m["cachesim.fills"] = metric{float64(cs.Fills), "count"}
	m["cachesim.writebacks"] = metric{float64(cs.Writebacks()), "count"}
	m["cachesim.flush_ops"] = metric{float64(cs.FlushOps), "count"}
	m["cachesim.dirty_flushes"] = metric{float64(cs.DirtyFlushes), "count"}
	replay, err := b.replayProbe(factory, g, phase)
	if err != nil {
		return nil, err
	}
	m["cachesim.replay_ns_per_access"] = metric{replay, "ns"}

	// sim: an undisturbed run, then fork, resume and reset.
	sm, err := b.machineProbe(factory, g, phase)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		m[k] = v
	}

	// nvct: per-trial replay cost against the campaign's, and allocation.
	var walls, inWalls []time.Duration
	var allocs, gcs []float64
	for _, u := range b.units {
		walls = append(walls, u.wall)
		allocs = append(allocs, u.allocMB)
		gcs = append(gcs, float64(u.gcCycles))
	}
	if b.cfg.w.shards == 0 {
		inWalls = walls
	} else {
		// The timed campaigns ran under campaignd: time the same spec in
		// process for the nvct metrics and campaignd's overhead.
		allocs, gcs = nil, nil
		for j := range b.specs {
			alloc0, gc0 := memCounters()
			t0 := time.Now()
			if _, err := b.inProcess(ctx, b.tester, b.tr, phase, j); err != nil {
				return nil, err
			}
			inWalls = append(inWalls, time.Since(t0))
			alloc1, gc1 := memCounters()
			allocs = append(allocs, alloc1-alloc0)
			gcs = append(gcs, float64(gc1-gc0))
		}
	}
	repro, err := b.reproProbe(ctx, phase)
	if err != nil {
		return nil, err
	}
	m["nvct.repro_trial_ms"] = metric{ms(repro), "ms"}
	m["nvct.sharing_factor"] = metric{float64(b.cfg.trials) * repro.Seconds() / median(inWalls).Seconds(), "ratio"}
	m["nvct.alloc_mb"] = metric{median(allocs), "MiB"}
	m["nvct.gc_cycles"] = metric{median(gcs), "count"}
	m["err_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "frac"}

	// nvct, faultmodel and pmemkv outcome counters, summed over the run's
	// distinct campaigns.
	counts := map[string]int{}
	for _, r := range b.refs {
		due, caught, missed := r.MediaErrorCounts()
		viol, _ := r.ConsistencyViolations()
		counts["nvct.nonfinite_results"] += nonfiniteResults(r)
		counts["faultmodel.due"] += due
		counts["faultmodel.silent_caught"] += caught
		counts["faultmodel.silent_missed"] += missed
		counts["pmemkv.violations"] += viol
	}
	for name, n := range counts {
		m[name] = metric{float64(n), "count"}
	}

	// campaignd: supervision overhead, attempts and merge cost.
	shWalls, attempts, failedAtts, runDir := walls, 0, 0, b.lastRun
	if b.cfg.w.shards > 0 {
		u := b.units[len(b.units)-1]
		attempts, failedAtts = u.attempts, u.failedAtts
	} else {
		t0 := time.Now()
		r, err := b.sharded(ctx, b.tr, phase, 0, "probe")
		if err != nil {
			return nil, err
		}
		shWalls = []time.Duration{time.Since(t0)}
		for _, s := range r.Shards {
			attempts += s.Attempts
			failedAtts += len(s.Failures)
		}
		runDir = r.RunDir
	}
	m["campaignd.overhead_s"] = metric{(median(shWalls) - median(inWalls)).Seconds(), "s"}
	m["campaignd.attempts"] = metric{float64(attempts), "count"}
	m["campaignd.failed_attempts"] = metric{float64(failedAtts), "count"}
	merge, err := b.mergeProbe(runDir, phase)
	if err != nil {
		return nil, err
	}
	m["campaignd.merge_ms"] = metric{ms(merge), "ms"}

	// Tracing overhead: traced minus untraced timed campaigns.
	var traced, untraced []time.Duration
	for _, u := range b.units {
		if u.traced {
			traced = append(traced, u.wall)
		} else {
			untraced = append(untraced, u.wall)
		}
	}
	m["trace.overhead_ms"] = metric{ms(median(traced) - median(untraced)), "ms"}
	return m, nil
}

// memCounters returns the bytes allocated so far, in MiB, and the number of
// completed GC cycles.
func memCounters() (allocMB float64, gcCycles uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20), ms.NumGC
}

func hitRate(s cachesim.Stats, level int) float64 {
	n := s.Hits[level] + s.Misses[level]
	if n == 0 {
		return 0
	}
	return float64(s.Hits[level]) / float64(n)
}

// access is one recorded main-loop demand access.
type access struct {
	addr  uint64
	size  int
	store bool
}

// traceRecorder is a sim.Observer that keeps the main-loop accesses: the
// machine's main-loop counter advances exactly on those.
type traceRecorder struct {
	m     *sim.Machine
	seen  uint64
	trace []access
}

func (r *traceRecorder) Access(addr uint64, size int, store bool) {
	if n := r.m.MainAccesses(); n != r.seen {
		r.seen = n
		r.trace = append(r.trace, access{addr, size, store})
	}
}

// replayProbe records the golden run's main-loop trace and replays it with
// scalar Hierarchy.Load/Store into a hierarchy reset to its cold,
// as-constructed state before every replay. It returns the median host
// nanoseconds per replayed access.
func (b *bench) replayProbe(factory apps.Factory, g nvct.Golden, parent int) (float64, error) {
	k := factory()
	m := sim.NewMachine(nvmBytes, cachesim.TestConfig())
	k.Setup(m)
	k.Init(m)
	rec := &traceRecorder{m: m}
	m.SetObserver(rec)
	if _, err := k.Run(m, 0, 2*k.NominalIters()); err != nil {
		return 0, fmt.Errorf("recording the %s trace: %w", k.Name(), err)
	}
	if uint64(len(rec.trace)) != g.MainAccesses {
		return 0, fmt.Errorf("recorded %d main-loop accesses of %s, golden run made %d", len(rec.trace), k.Name(), g.MainAccesses)
	}
	h := sim.NewMachine(nvmBytes, cachesim.TestConfig()).Hierarchy()
	buf := make([]byte, 64)
	rounds := max(1, replayMinAccesses/len(rec.trace))
	var samples []float64
	for i := 0; i < probeReps; i++ {
		var d time.Duration
		for r := 0; r < rounds; r++ {
			h.Reset()
			sp := b.tr.start("cachesim.replay", parent)
			t0 := time.Now()
			for _, a := range rec.trace {
				if a.store {
					h.Store(0, a.addr, buf[:a.size])
				} else {
					h.Load(0, a.addr, buf[:a.size])
				}
			}
			d += time.Since(t0)
			b.tr.end(sp)
		}
		samples = append(samples, float64(d.Nanoseconds())/float64(rounds*len(rec.trace)))
	}
	return median(samples), nil
}

// machineProbe times the sim layer on its own: an undisturbed batched run
// (Setup, Init, Run on a reset machine; Run is timed), a fork taken by the
// fork hook at the mid-run crash point, ResumeFrom that fork on a second
// machine, and Reset of that machine.
func (b *bench) machineProbe(factory apps.Factory, g nvct.Golden, parent int) (map[string]metric, error) {
	m := sim.NewMachine(nvmBytes, cachesim.TestConfig())
	m2 := sim.NewMachine(nvmBytes, cachesim.TestConfig())
	var runs, forks, resumes, resets []float64
	var extent uint64
	for i := 0; i < probeReps; i++ {
		k := factory()
		m.Reset()
		k.Setup(m)
		k.Init(m)
		extent = m.Space().Extent()
		sp := b.tr.start("sim.run", parent)
		t0 := time.Now()
		_, err := k.Run(m, 0, 2*k.NominalIters())
		d := time.Since(t0)
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("sim probe run of %s: %w", k.Name(), err)
		}
		runs = append(runs, float64(d.Nanoseconds())/float64(m.MainAccesses()))

		k = factory()
		m.Reset()
		k.Setup(m)
		k.Init(m)
		var snap *sim.Snapshot
		m.SetForkHook(func(sim.Crash) uint64 {
			sp := b.tr.start("sim.Fork", parent)
			t0 := time.Now()
			snap = m.Fork()
			forks = append(forks, float64(time.Since(t0).Nanoseconds())/1e3)
			b.tr.end(sp)
			return 0
		})
		m.SetCrashAfter(g.MainAccesses / 2)
		_, err = k.Run(m, 0, 2*k.NominalIters())
		m.SetForkHook(nil)
		if err != nil || snap == nil {
			return nil, fmt.Errorf("sim probe fork run of %s: no fork taken (err %v)", k.Name(), err)
		}
		m2.Reset()
		sp = b.tr.start("sim.ResumeFrom", parent)
		t0 = time.Now()
		m2.ResumeFrom(snap)
		resumes = append(resumes, float64(time.Since(t0).Nanoseconds())/1e3)
		b.tr.end(sp)
		sp = b.tr.start("sim.Reset", parent)
		t0 = time.Now()
		m2.Reset()
		resets = append(resets, float64(time.Since(t0).Nanoseconds())/1e3)
		b.tr.end(sp)
	}
	return map[string]metric{
		"sim.run_ns_per_access": {median(runs), "ns"},
		"sim.fork_us":           {median(forks), "us"},
		"sim.resume_us":         {median(resumes), "us"},
		"sim.reset_us":          {median(resets), "us"},
		"sim.extent_kb":         {float64(extent) / 1024, "KiB"},
	}, nil
}

// reproProbe re-runs a fixed, evenly spaced sample of the first campaign's
// trials with Tester.ReproTrial, checks each against the campaign's record
// and returns the median time per trial.
func (b *bench) reproProbe(ctx context.Context, parent int) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reproSample; i++ {
		idx := i * b.cfg.trials / reproSample
		sp := b.tr.start("nvct.ReproTrial", parent)
		t0 := time.Now()
		tr, err := b.tester.ReproTrial(ctx, b.specs[0].Policy, b.specs[0].Opts, idx)
		ds = append(ds, time.Since(t0))
		b.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("repro of trial %d: %w", idx, err)
		}
		if testDigest(&tr) != testDigest(&b.refs[0].Tests[idx]) {
			return 0, fmt.Errorf("repro of trial %d differs from the campaign's record", idx)
		}
	}
	return median(ds), nil
}

// mergeProbe parses the shard files of a campaignd run directory and merges
// them, probeReps times; it returns the median time of parse plus merge, or 0
// when no shard delivered a file.
func (b *bench) mergeProbe(runDir string, parent int) (time.Duration, error) {
	files, err := filepath.Glob(filepath.Join(runDir, "shards", "*.json"))
	if err != nil || len(files) == 0 {
		return 0, err
	}
	var raw [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		raw = append(raw, data)
	}
	var ds []time.Duration
	for i := 0; i < probeReps; i++ {
		sp := b.tr.start("campaignd.merge", parent)
		t0 := time.Now()
		var parts []*nvct.ShardReport
		for _, data := range raw {
			p, err := nvct.ParseShardReport(data)
			if err != nil {
				return 0, err
			}
			parts = append(parts, p)
		}
		if _, err := nvct.MergeShards(b.specs[0].Policy, parts); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
		b.tr.end(sp)
	}
	return median(ds), nil
}
