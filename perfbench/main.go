// Command perfbench is the repository's end-to-end benchmark: it runs one
// named crash-test campaign workload through the public APIs of nvct,
// campaignd, sim and cachesim, checks the campaign's outputs, and prints
// every metric by name with its unit. README.md in this directory describes
// the workloads, the metrics and how to run it.
//
// Usage:
//
//	bash perfbench/run.sh --workload recovery-mg --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and the spans
// the run recorded are written to --out-dir. A failed output check exits 1
// without printing metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"easycrash/internal/campaignd"

	// Register the persistent KV workload: kv-sharded's workers rebuild
	// their tester from the spec's kernel name.
	_ "easycrash/internal/pmemkv"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(campaignd.WorkerMain(os.Args[2:], os.Stdout, os.Stderr))
		case "oneshot":
			if err := oneShotMain(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench oneshot: %v\n", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	var (
		name    = flag.String("workload", "", "workload to run: recovery-mg | faults-nested-lu | kv-sharded")
		seed    = flag.Int64("seed", defaultSeed, "campaign seed")
		seconds = flag.Float64("seconds", 15, "how long the timed campaign loop runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		outDir  = flag.String("out-dir", ".bench_build/perfbench", "directory for campaign run directories and span files")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload <name> [--seed n] [--seconds s] [--trace 0|1]; workloads: %v\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		w:       w,
		trials:  w.trials,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *outDir,
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// capProcs caps GOMAXPROCS at the number of CPUs the process may run on, so
// no workload uses more threads of computation than the host has.
func capProcs() {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
}
