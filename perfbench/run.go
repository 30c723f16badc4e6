package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/campaignd"
	"easycrash/internal/nvct"
)

const (
	// campaignsPerRun is how many distinct campaigns a run cycles through,
	// each with its own campaign seed derived from --seed. One campaign's
	// cost depends on its crash points by about ±7%; timing several keeps
	// the run's median close to the same value whatever the seed.
	campaignsPerRun = 4
	// minUnits is the fewest timed campaigns a run makes, however short
	// --seconds is: every distinct campaign runs at least twice, so each is
	// checked against a repeat of itself.
	minUnits = 2 * campaignsPerRun
)

// campaignSeed derives the seed of the run's j-th campaign; the first is
// --seed itself.
func campaignSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// config is one benchmark run.
type config struct {
	w       workload
	trials  int
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
}

// result is the line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unit is one timed campaign.
type unit struct {
	wall, cpu  time.Duration
	delivered  int
	failed     int // SErr trials plus undelivered trials
	traced     bool
	allocMB    float64 // traced runs only
	gcCycles   uint32
	attempts   int // sharded campaigns only
	failedAtts int
}

// bench carries one run's state.
type bench struct {
	cfg    config
	specs  []*campaignd.Spec // one per distinct campaign
	tr     *tracer           // nil unless cfg.trace
	runs   string            // directory for campaignd run directories
	tester *nvct.Tester

	setups  []time.Duration // set-up times of the one-shot processes
	rss     []float64       // peak RSS of the one-shot processes that ran a campaign
	oneShot []oneShotDigest // their report digests
	refs    []*nvct.Report  // each campaign's first report
	digests []string        // reportDigest of refs
	units   []unit
	lastRun string // run directory of the last sharded campaign
}

// run executes one benchmark run and returns its result. Output checks that
// fail return an error; the caller then prints no metrics.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	capProcs()
	h, _ := json.Marshal(readHost())
	fmt.Fprintf(out, "host %s\n", h)

	b := &bench{cfg: cfg}
	for j := 0; j < campaignsPerRun; j++ {
		b.specs = append(b.specs, cfg.w.spec(campaignSeed(cfg.seed, j), cfg.trials))
	}
	b.refs = make([]*nvct.Report, campaignsPerRun)
	b.digests = make([]string, campaignsPerRun)
	id := fmt.Sprintf("%s-seed%d-%d", cfg.w.name, cfg.seed, time.Now().UnixNano())
	b.runs = filepath.Join(cfg.outDir, "runs", id)
	defer os.RemoveAll(b.runs)
	if cfg.trace {
		b.tr = newTracer(id)
	}
	root := b.tr.start("bench."+cfg.w.name, 0)

	if err := b.setup(ctx, root); err != nil {
		return nil, err
	}
	if err := b.timeCampaigns(ctx, root); err != nil {
		return nil, err
	}
	if err := b.check(ctx, root); err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	var walls []time.Duration
	for _, u := range b.units {
		res.Attempted += cfg.trials
		res.Failed += u.failed
		walls = append(walls, u.wall)
	}
	fmt.Fprintf(out, "samples: %d setups, %d timed campaigns (%d distinct) of %d trials; campaign wall median %.3fs, min %.3fs, max %.3fs\n",
		len(b.setups), len(b.units), campaignsPerRun, cfg.trials, median(walls).Seconds(), slices.Min(walls).Seconds(), slices.Max(walls).Seconds())

	if !cfg.trace {
		res.Metrics = b.endToEnd(res)
		return res, nil
	}
	m, err := b.perLayer(ctx, root, res)
	if err != nil {
		return nil, err
	}
	b.tr.end(root)
	for layer, d := range b.tr.selfTimes() {
		m[layer+".self_ms"] = metric{ms(d), "ms"}
	}
	m["trace.spans"] = metric{float64(len(b.tr.spans)), "count"}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "spans-"+id+".json")
	if err := b.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	res.Metrics = m
	return res, nil
}

// timeCampaigns runs one untimed warm-up campaign, which fills the tester's
// machine and dump pools (and, sharded, loads the worker executable), then
// cycles through the run's campaigns until cfg.seconds have passed. A
// campaign's first report becomes its reference; every repeat must
// reproduce it exactly. In a traced run every other cycle of campaigns
// records spans, so the two halves give the tracing overhead.
func (b *bench) timeCampaigns(ctx context.Context, root int) error {
	phase := b.tr.start("bench.warmup", root)
	_, _, err := b.campaign(ctx, b.tr, phase, 0, "warmup")
	b.tr.end(phase)
	if err != nil {
		return err
	}
	phase = b.tr.start("bench.timed", root)
	defer b.tr.end(phase)
	start := time.Now()
	for i := 0; len(b.units) < minUnits || time.Since(start) < b.cfg.seconds; i++ {
		j := i % campaignsPerRun
		// Whole cycles alternate, so every campaign is timed traced and
		// untraced alike.
		u := unit{traced: b.cfg.trace && (i/campaignsPerRun)%2 == 0}
		tr := b.tr
		if !u.traced {
			tr = nil
		}
		var alloc0 float64
		var gc0 uint32
		if b.cfg.trace {
			alloc0, gc0 = memCounters()
		}
		cpu0, t0 := cpuTime(), time.Now()
		rep, sh, err := b.campaign(ctx, tr, phase, j, fmt.Sprintf("timed-%d", i))
		u.wall, u.cpu = time.Since(t0), cpuTime()-cpu0
		if b.cfg.trace {
			alloc1, gc1 := memCounters()
			u.allocMB, u.gcCycles = alloc1-alloc0, gc1-gc0
		}
		if err != nil {
			return err
		}
		if sh != nil {
			u.failed += len(sh.Missing)
			for _, s := range sh.Shards {
				u.attempts += s.Attempts
				u.failedAtts += len(s.Failures)
			}
			b.lastRun = sh.RunDir
		}
		d := reportDigest(rep)
		if b.refs[j] == nil {
			b.refs[j], b.digests[j] = rep, d
		} else if d != b.digests[j] {
			return fmt.Errorf("%s campaign seed %d: report digest %s differs from the campaign's first report %s",
				b.cfg.w.name, b.specs[j].Opts.Seed, d, b.digests[j])
		}
		u.delivered = len(rep.Tests)
		u.failed += rep.Counts[nvct.SErr]
		b.units = append(b.units, u)
	}
	return nil
}

// campaign runs the run's j-th campaign the way the workload times it: in
// process, or sharded under campaignd (then sh is its result).
func (b *bench) campaign(ctx context.Context, tr *tracer, parent, j int, name string) (rep *nvct.Report, sh *campaignd.Result, err error) {
	if b.cfg.w.shards == 0 {
		rep, err = b.inProcess(ctx, b.tester, tr, parent, j)
		return rep, nil, err
	}
	sh, err = b.sharded(ctx, tr, parent, j, name)
	if err != nil {
		return nil, nil, err
	}
	return sh.Report, sh, nil
}

// inProcess runs the j-th campaign on tester t, recording a span on tr.
func (b *bench) inProcess(ctx context.Context, t *nvct.Tester, tr *tracer, parent, j int) (*nvct.Report, error) {
	sp := tr.start("nvct.RunCampaignContext", parent)
	rep, err := t.RunCampaignContext(ctx, b.specs[j].Policy, b.specs[j].Opts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", b.cfg.w.name, err)
	}
	return rep, nil
}

// sharded runs the j-th campaign under campaignd with the workload's shard
// count (2 when the workload is in-process) into a fresh run directory,
// recording a span on tr.
func (b *bench) sharded(ctx context.Context, tr *tracer, parent, j int, name string) (*campaignd.Result, error) {
	shards := b.cfg.w.shards
	if shards == 0 {
		shards = 2
	}
	sp := tr.start("campaignd.Run", parent)
	res, err := campaignd.Run(ctx, campaignd.Config{
		Spec:   b.specs[j],
		Shards: shards,
		RunDir: filepath.Join(b.runs, name),
		// One processor per worker: the workers together use nproc (2).
		WorkerEnv: []string{"GOMAXPROCS=1"},
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s sharded campaign: %w", b.cfg.w.name, err)
	}
	return res, nil
}

// check checks each campaign's reference report: it must charge no
// consistency violation; it must match the pinned digest for the default
// seed, or the scalar reference engine's report for any other seed; and a
// sharded campaign's merged report must equal the in-process one. The
// one-shot processes' reports must equal this process's.
func (b *bench) check(ctx context.Context, root int) error {
	phase := b.tr.start("bench.check", root)
	defer b.tr.end(phase)
	for _, o := range b.oneShot {
		if o.digest != b.digests[o.j] {
			return fmt.Errorf("%s campaign seed %d: a one-shot process's report digest %s differs from this process's %s",
				b.cfg.w.name, b.specs[o.j].Opts.Seed, o.digest, b.digests[o.j])
		}
	}
	var scalar *nvct.Tester
	var pinErrs []error
	if b.cfg.seed != defaultSeed {
		factory, err := apps.New(b.cfg.w.kernel, apps.ProfileTest)
		if err != nil {
			return err
		}
		if scalar, err = nvct.NewTester(factory, nvct.Config{ScalarAccess: true}); err != nil {
			return fmt.Errorf("building the scalar reference tester: %w", err)
		}
	}
	for j, ref := range b.refs {
		seed := b.specs[j].Opts.Seed
		if v, _ := ref.ConsistencyViolations(); v != 0 {
			return fmt.Errorf("%s campaign seed %d: the oracle charged %d consistency violations", b.cfg.w.name, seed, v)
		}
		if scalar == nil {
			// Report every mismatching pin, so a deliberate change can
			// re-pin them all from one run.
			key := pinKey{b.cfg.w.name, b.cfg.trials, j}
			if want := pinnedDigests[key]; b.digests[j] != want {
				pinErrs = append(pinErrs, fmt.Errorf("%s campaign %d (seed %d, %d trials): report digest %s, pinned %q", b.cfg.w.name, j, seed, b.cfg.trials, b.digests[j], want))
			}
		} else {
			// A trial's result does not depend on how many run at once, so
			// the untimed reference uses every CPU.
			opts := b.specs[j].Opts
			opts.Parallel = 0
			sp := b.tr.start("nvct.RunCampaignContext", phase)
			rep, err := scalar.RunCampaignContext(ctx, b.specs[j].Policy, opts)
			b.tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s scalar reference campaign: %w", b.cfg.w.name, err)
			}
			if d := reportDigest(rep); d != b.digests[j] {
				return fmt.Errorf("%s campaign seed %d: report digest %s differs from the scalar reference engine's %s", b.cfg.w.name, seed, b.digests[j], d)
			}
		}
		if b.cfg.w.shards > 0 {
			rep, err := b.inProcess(ctx, b.tester, b.tr, phase, j)
			if err != nil {
				return err
			}
			if d := reportDigest(rep); d != b.digests[j] {
				return fmt.Errorf("%s campaign seed %d: merged sharded report %s differs from the in-process report %s", b.cfg.w.name, seed, b.digests[j], d)
			}
		}
	}
	return errors.Join(pinErrs...)
}

// endToEnd computes the metrics a user of the campaign engine sees.
func (b *bench) endToEnd(res *result) map[string]metric {
	var rates []float64
	var cpus []time.Duration
	for _, u := range b.units {
		rates = append(rates, float64(u.delivered)/u.wall.Seconds())
		cpus = append(cpus, u.cpu)
	}
	return map[string]metric{
		"trials_per_s":   {median(rates), "1/s"},
		"campaign_cpu_s": {median(cpus).Seconds(), "s"},
		"setup_s":        {median(b.setups).Seconds(), "s"},
		"peak_rss_mb":    {median(b.rss), "MiB"},
		"ok_frac":        {1 - float64(res.Failed)/float64(res.Attempted), "frac"},
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
