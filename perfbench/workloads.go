package main

import (
	"easycrash/internal/campaignd"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// defaultSeed is the seed whose report digests are pinned below. Any other
// seed is checked against the scalar reference engine instead.
const defaultSeed = 1

// workload is one campaign the benchmark times. README.md records why each
// was chosen.
type workload struct {
	name   string
	kernel string
	trials int
	faults faultmodel.Config
	depth  int
	// shards > 0 times supervised campaignd.Run calls with that many worker
	// processes; 0 times in-process RunCampaignContext calls.
	shards int
}

var workloads = []workload{
	{name: "recovery-mg", kernel: "mg", trials: 200},
	{name: "faults-nested-lu", kernel: "lu", trials: 200,
		faults: faultmodel.Config{RBER: 1e-5, TornWrites: true}, depth: 2},
	{name: "kv-sharded", kernel: "pmemkv", trials: 2000, shards: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// spec is the campaign one run of the workload executes: the iterator-only
// policy, serial trials (Parallel 1) and the test problem size and cache.
func (w workload) spec(seed int64, trials int) *campaignd.Spec {
	return &campaignd.Spec{
		Kernel: w.kernel,
		Opts: nvct.CampaignOpts{
			Tests:        trials,
			Seed:         seed,
			Parallel:     1,
			Faults:       w.faults,
			RecrashDepth: w.depth,
		},
	}
}

// pinKey names one pinned campaign: the j-th campaign of a defaultSeed run
// of a workload at a trial count.
type pinKey struct {
	workload string
	trials   int
	j        int
}

// pinnedDigests are the report digests (see reportDigest) of the
// defaultSeed campaigns. The short sizes are the ones the tests run.
var pinnedDigests = map[pinKey]string{
	{"recovery-mg", 200, 0}:      "462bb33c5c95d81b6be44f2a973364fd29c3bf052bf370c9a523b0145812d43d",
	{"recovery-mg", 200, 1}:      "482e20ac1c37e3c4ab9890d8389e484940ceae7f5f685316b86f1f57ef74b417",
	{"recovery-mg", 200, 2}:      "8c7cd9c54e46b571995ad94aa7b79f2a5ddf44b82aa02455833914ee5f3200a0",
	{"recovery-mg", 200, 3}:      "7a745b432c7371a2c3f95f1d078f961e49b6e36294dea267bbbbc38e6774f8f3",
	{"faults-nested-lu", 200, 0}: "f2eb7fd7f1077128e8c118473b1e8e276fb686b536b89b360a26cc3bc1e5f8d1",
	{"faults-nested-lu", 200, 1}: "1bec971129ddda5998f5cb4d7adfa9b01eb94d6a5c9a32079e16918a62885dca",
	{"faults-nested-lu", 200, 2}: "735a9b84adefd3e1eb1f6f19220902c814f94a7ae032e7fcdad0b9770d851239",
	{"faults-nested-lu", 200, 3}: "dce7ba7c981507d161b5aabaa621927aebfefb73b6d04ccfa76589408a9d38b7",
	{"kv-sharded", 2000, 0}:      "55b92502d3166290696b1c2ee75bce1dad5f878d731a97bb9d3f0fc3768518f0",
	{"kv-sharded", 2000, 1}:      "46489b3692c3db9b8489aecbcb1a7594334aedeaffeb31f8d5c1247002864ce6",
	{"kv-sharded", 2000, 2}:      "5fbcb5549b5c6a4c2d0b7d2e79f22c2823665520c0d76605b4833959927cad29",
	{"kv-sharded", 2000, 3}:      "4a5b715c2f5960cca69e2396f16a768c01f37d47592d31e912fe3b0910c60b4c",
}

// pinnedGolden are the golden-run profiles (see goldenProfile) of each
// workload's kernel. The golden run draws nothing from the seed, so these
// hold for every seed; a change that only speeds the simulator up must leave
// them untouched.
var pinnedGolden = map[string]string{
	"recovery-mg":      "iters=10 main=435710 loads=393848 stores=81193 hits=[431780 11588 3177] misses=[43261 31673 28496] fills=28496 evict_wb=10676 flush_ops=10 dirty_flushes=10 clean_flushes=0 drain_wb=0 inval=0 nvm_writes=9724",
	"faults-nested-lu": "iters=10 main=235540 loads=195896 stores=46989 hits=[223331 6550 7328] misses=[19554 13004 5676] fills=5676 evict_wb=2102 flush_ops=10 dirty_flushes=10 clean_flushes=0 drain_wb=0 inval=0 nvm_writes=1872",
	"kv-sharded":       "iters=10 main=2730 loads=2530 stores=3277 hits=[4873 443 201] misses=[934 491 290] fills=290 evict_wb=0 flush_ops=651 dirty_flushes=651 clean_flushes=0 drain_wb=0 inval=0 nvm_writes=650",
}
