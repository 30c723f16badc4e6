package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"easycrash/internal/campaignd"
)

const (
	// setupReps one-shot processes are started per run; setup_s is the
	// median of their set-up times.
	setupReps = 15
	// rssReps of them also run one of the run's campaigns, cycling through
	// them; peak_rss_mb is the median of their peak resident sets. Some
	// campaigns peak tens of MiB higher than most, so the median is taken
	// across campaigns rather than over repeats of one.
	rssReps = 5
)

// oneShot is what a one-shot process prints.
type oneShot struct {
	SetupNanos int64   `json:"setup_ns"`
	Golden     string  `json:"golden"`
	PeakRSSMB  float64 `json:"peak_rss_mb,omitempty"`
	Digest     string  `json:"digest,omitempty"`
}

// setup measures what one nvct invocation pays, in fresh one-shot processes:
// building the tester (the golden run, before the first trial) and, for
// rssReps of them, the peak resident set of running one campaign too.
// A process that has already run campaigns would measure neither: it reuses
// freed memory, which the allocator zeroes first, and each simulated machine
// holds a 64 MiB NVM image, so both the set-up time and the resident set
// would depend on the allocator's history. Every golden run must match the
// pinned profile. Last, setup builds this process's tester, which serves
// every campaign of the run: the golden run does not depend on the seed.
func (b *bench) setup(ctx context.Context, root int) error {
	phase := b.tr.start("bench.setup", root)
	defer b.tr.end(phase)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		j := -1
		if i < rssReps {
			j = i % campaignsPerRun
		}
		args := []string{"oneshot", "-workload", b.cfg.w.name, "-trials", strconv.Itoa(b.cfg.trials),
			"-seed", strconv.FormatInt(b.cfg.seed, 10), "-campaign", strconv.Itoa(j),
			"-run-dir", filepath.Join(b.runs, fmt.Sprintf("oneshot-%d", i))}
		sp := b.tr.start("bench.oneshot", phase)
		out, err := exec.CommandContext(ctx, self, args...).Output()
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("one-shot process: %w", err)
		}
		var r oneShot
		if err := json.Unmarshal(out, &r); err != nil {
			return fmt.Errorf("one-shot process output %q: %w", out, err)
		}
		if err := b.checkGolden(r.Golden); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Duration(r.SetupNanos))
		if j >= 0 {
			b.rss = append(b.rss, r.PeakRSSMB)
			b.oneShot = append(b.oneShot, oneShotDigest{j, r.Digest})
		}
	}
	sp := b.tr.start("nvct.NewTester", phase)
	b.tester, err = b.specs[0].NewTester()
	b.tr.end(sp)
	if err != nil {
		return fmt.Errorf("building the %s tester: %w", b.cfg.w.kernel, err)
	}
	return b.checkGolden(goldenProfile(b.tester.Golden()))
}

func (b *bench) checkGolden(p string) error {
	if want := pinnedGolden[b.cfg.w.name]; p != want {
		return fmt.Errorf("golden profile of %s changed:\n  got    %s\n  pinned %s", b.cfg.w.kernel, p, want)
	}
	return nil
}

// oneShotDigest is the report digest of campaign j in a one-shot process.
type oneShotDigest struct {
	j      int
	digest string
}

// oneShotMain is the one-shot process: it builds the workload's tester,
// optionally runs one of the run's campaigns the way the workload times it,
// and prints a oneShot line.
func oneShotMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("oneshot", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload")
		trials   = fs.Int("trials", 0, "trials per campaign")
		seed     = fs.Int64("seed", defaultSeed, "run seed")
		runDir   = fs.String("run-dir", "", "campaignd run directory")
		campaign = fs.Int("campaign", -1, "index of the run's campaign to run after the set-up (-1: none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok || *trials <= 0 || *campaign >= campaignsPerRun {
		return fmt.Errorf("want -workload <name> -trials <n>, got %q", args)
	}
	capProcs()
	b := &bench{
		cfg:   config{w: w, trials: *trials, seed: *seed},
		specs: []*campaignd.Spec{w.spec(campaignSeed(*seed, max(*campaign, 0)), *trials)},
		runs:  *runDir,
	}
	t0 := time.Now()
	t, err := b.specs[0].NewTester()
	r := oneShot{SetupNanos: time.Since(t0).Nanoseconds()}
	if err != nil {
		return err
	}
	r.Golden = goldenProfile(t.Golden())
	if *campaign >= 0 {
		b.tester = t
		rep, _, err := b.campaign(context.Background(), nil, 0, 0, "campaign")
		if err != nil {
			return err
		}
		r.PeakRSSMB, r.Digest = peakRSSMB(), reportDigest(rep)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
