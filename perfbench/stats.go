package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// quantile is the q-quantile of xs with linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactCounts are the deterministic functions of the workload seed:
// the per-cell simulation counts over every cell the replay simulated
// (priming, timed sequence and the study count pass), the result-cache
// hit ratio and the study simulated share over the timed sequence.
func exactCounts(prime, timed, count *probe) map[string]float64 {
	sum := func(f func(*probe) int64) float64 {
		return float64(f(prime) + f(timed) + f(count))
	}
	simulated := float64(prime.simulated.Load() + timed.simulated.Load())
	return map[string]float64{
		"sim.events_per_cell":          ratio(sum(func(p *probe) int64 { return p.steps.Load() }), simulated),
		"cluster.dispatches_per_cell":  ratio(sum(func(p *probe) int64 { return p.dispatches.Load() }), simulated),
		"cluster.preemptions_per_cell": ratio(sum(func(p *probe) int64 { return p.preemptions.Load() }), simulated),
		"cache.evictions_per_cell":     ratio(sum(func(p *probe) int64 { return p.evictions.Load() }), simulated),
		"resultcache.hit_ratio":        ratio(float64(timed.hits.Load()), float64(timed.gets.Load())),
		"opt.simulated_share":          ratio(float64(timed.studySimulated.Load()), float64(timed.studyEvaluated.Load())),
	}
}

// checkCounts records the exact counts of (daemon build, workload, seed,
// sequence length) under the work directory and fails when an earlier
// run of the same build and sequence recorded different ones: they must
// repeat exactly.
func checkCounts(cfg config, seed int64, n int, counts map[string]float64) error {
	dir := filepath.Join(cfg.work, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(counts, "", " ")
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(cfg.daemon)
	if err != nil {
		return err
	}
	build := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("%x-%s-seed%d-n%d.json", build[:6], cfg.workload, seed, n))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != string(b) {
			return fmt.Errorf("exact counts of %s differ from an earlier run of the same seed:\n earlier %s\n now     %s", filepath.Base(path), prev, b)
		}
		return nil
	}
	return os.WriteFile(path, b, 0o644)
}
