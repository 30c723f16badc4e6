package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/campaignd"
	"easycrash/internal/nvct"
)

// TestMain lets the child processes a run starts, which re-exec the running
// binary, run inside the test binary: the one-shot processes and
// kv-sharded's campaignd workers.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(campaignd.WorkerMain(os.Args[2:], os.Stdout, os.Stderr))
		case "oneshot":
			if err := oneShotMain(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// shortTrials are the campaign sizes the tests run.
var shortTrials = map[string]int{"recovery-mg": 10, "faults-nested-lu": 20, "kv-sharded": 100}

func shortConfig(t *testing.T, name string, seed int64, trace bool) config {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{w: w, trials: shortTrials[name], seed: seed, seconds: time.Millisecond, trace: trace, outDir: t.TempDir()}
}

// contract reads the metric names and units BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrinted runs each workload at a short size, untraced and
// traced, on a seed checked against the scalar engine, and checks the result
// line carries exactly the metrics BENCHMARK.json names, with their units.
func TestEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var out bytes.Buffer
			res, err := run(context.Background(), shortConfig(t, w.name, 7, trace), &out)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not printed", w.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s (trace %v): metric %s unit %q, want %q", w.name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace %v): metric %s = %v", w.name, trace, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): metric %s printed but not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if !strings.HasPrefix(out.String(), "host {") {
				t.Errorf("%s: output does not start with the host context: %q", w.name, out.String())
			}
		}
	}
}

// TestPinsAreChecked shows the default-seed checks are not vacuous: the run
// passes with the correct pins, computed here on the scalar reference
// engine, and fails once one report pin or the golden pin is wrong.
func TestPinsAreChecked(t *testing.T) {
	const name = "recovery-mg"
	w, _ := workloadByName(name)
	trials := shortTrials[name]
	factory, err := apps.New(w.kernel, apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := nvct.NewTester(factory, nvct.Config{ScalarAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	savedDigests, savedGolden := pinnedDigests, pinnedGolden
	t.Cleanup(func() { pinnedDigests, pinnedGolden = savedDigests, savedGolden })
	pinnedDigests = map[pinKey]string{}
	for j := 0; j < campaignsPerRun; j++ {
		s := w.spec(campaignSeed(defaultSeed, j), trials)
		rep, err := scalar.RunCampaignContext(context.Background(), s.Policy, s.Opts)
		if err != nil {
			t.Fatal(err)
		}
		pinnedDigests[pinKey{name, trials, j}] = reportDigest(rep)
	}
	cfg := shortConfig(t, name, defaultSeed, false)
	if _, err := run(context.Background(), cfg, &bytes.Buffer{}); err != nil {
		t.Fatalf("run with correct pins failed: %v", err)
	}

	pinnedDigests[pinKey{name, trials, 2}] = strings.Repeat("0", 64)
	if _, err := run(context.Background(), cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("run with a wrong report pin: err = %v, want a pin mismatch", err)
	}
	pinnedDigests = savedDigests

	pinnedGolden = map[string]string{name: pinnedGolden[name] + " "}
	if _, err := run(context.Background(), cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "golden profile") {
		t.Fatalf("run with a wrong golden pin: err = %v, want a golden profile mismatch", err)
	}
}

func TestReportDigest(t *testing.T) {
	base := func() *nvct.Report {
		return &nvct.Report{Kernel: "k", Requested: 1, Tests: []nvct.TestResult{{FinalResult: []float64{1}}}}
	}
	d := reportDigest(base())

	empty := base()
	empty.Tests[0].Inconsistency = map[string]float64{}
	if reportDigest(empty) != d {
		t.Error("an empty map digests unlike a nil one")
	}
	for _, v := range []float64{math.Inf(1), math.NaN(), math.Copysign(0, -1), math.Nextafter(1, 2)} {
		r := base()
		r.Tests[0].FinalResult[0] = v
		if reportDigest(r) == d {
			t.Errorf("FinalResult %v digests like 1", v)
		}
	}
	if n := nonfiniteResults(&nvct.Report{Tests: []nvct.TestResult{{FinalResult: []float64{math.Inf(1)}}, {FinalResult: []float64{2}}}}); n != 1 {
		t.Errorf("nonfiniteResults = %d, want 1", n)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "nvct.a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "sim.b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "nvct.c", Start: 50, End: 70},
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{"bench": 50, "nvct": 40, "sim": 10}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], d)
		}
	}
}
