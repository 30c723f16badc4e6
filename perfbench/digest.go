package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// reportDigest hashes every field of a campaign report. Floats are hashed by
// their bit patterns, so the digest also covers the non-finite values that
// Report.JSON refuses to serialise. A nil slice or map hashes like an empty
// one: a report merged from shard files must digest like the in-process one.
func reportDigest(r *nvct.Report) string {
	d := digester{h: sha256.New()}
	d.str(r.Kernel)
	d.policy(r.Policy)
	for _, c := range r.Counts {
		d.int(c)
	}
	d.int(r.Regions)
	d.int(r.Requested)
	d.int(len(r.Tests))
	for i := range r.Tests {
		d.test(&r.Tests[i])
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// testDigest hashes one trial record the way reportDigest does.
func testDigest(t *nvct.TestResult) string {
	d := digester{h: sha256.New()}
	d.test(t)
	return hex.EncodeToString(d.h.Sum(nil))
}

type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }

func (d *digester) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) floats(v []float64) {
	d.int(len(v))
	for _, f := range v {
		d.f64(f)
	}
}

func (d *digester) floatMap(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.int(len(keys))
	for _, k := range keys {
		d.str(k)
		d.f64(m[k])
	}
}

func (d *digester) policy(p *nvct.Policy) {
	d.bool(p != nil)
	if p == nil {
		return
	}
	d.int(len(p.Objects))
	for _, o := range p.Objects {
		d.str(o)
	}
	d.bool(p.AtIterationEnd)
	d.int(len(p.AtRegionEnds))
	for _, r := range p.AtRegionEnds {
		d.int(r)
	}
	d.i64(p.Frequency)
	d.int(int(p.Op))
}

func (d *digester) media(m faultmodel.Injection) {
	d.int(m.TornWords)
	d.int(m.CorrectedBlocks)
	d.int(m.PoisonedBlocks)
	d.int(m.SilentBlocks)
	d.int(m.FlippedBits)
}

func (d *digester) test(t *nvct.TestResult) {
	d.u64(t.CrashAccess)
	d.int(t.CrashRegion)
	d.i64(t.CrashIter)
	d.int(int(t.Outcome))
	d.i64(t.ExtraIters)
	d.floatMap(t.Inconsistency)
	d.floats(t.FinalResult)
	d.media(t.Media)
	d.int(t.ScrubbedObjects)
	d.str(t.Err)
	d.int(len(t.Violations))
	for _, v := range t.Violations {
		d.str(v)
	}
	d.int(t.Depth)
	d.int(t.Retries)
	d.int(len(t.Chain))
	for _, c := range t.Chain {
		d.u64(c.Access)
		d.int(c.Region)
		d.i64(c.Iter)
		d.media(c.Media)
	}
	d.floatMap(t.FinalInconsistency)
}

// nonfiniteResults counts the trials holding a NaN or an infinity in any
// float of their record: each one makes Report.JSON fail.
func nonfiniteResults(r *nvct.Report) int {
	n := 0
	for _, t := range r.Tests {
		bad := false
		check := func(v float64) { bad = bad || math.IsNaN(v) || math.IsInf(v, 0) }
		for _, v := range t.FinalResult {
			check(v)
		}
		for _, v := range t.Inconsistency {
			check(v)
		}
		for _, v := range t.FinalInconsistency {
			check(v)
		}
		if bad {
			n++
		}
	}
	return n
}

// goldenProfile renders the golden run's deterministic work counters: the
// main-loop access count, the cache hierarchy's counters and the NVM block
// writes.
func goldenProfile(g nvct.Golden) string {
	s := g.CacheStats
	return fmt.Sprintf("iters=%d main=%d loads=%d stores=%d hits=%v misses=%v fills=%d evict_wb=%d flush_ops=%d dirty_flushes=%d clean_flushes=%d drain_wb=%d inval=%d nvm_writes=%d",
		g.Iters, g.MainAccesses, s.Loads, s.Stores, s.Hits, s.Misses, s.Fills, s.EvictionWritebacks,
		s.FlushOps, s.DirtyFlushes, s.CleanFlushes, s.DrainWritebacks, s.Invalidations, g.NVMWrites)
}
