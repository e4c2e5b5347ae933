package main

import (
	"fmt"
	"math"
	"math/rand"

	"physched/internal/lab"
)

// plan is a workload's full request sequence for one seed: every run of
// every commit sends exactly these bodies in exactly this order. The
// daemon receives the bodies and nothing else.
type plan struct {
	// warmups are sent after boot in every set-up, untimed.
	warmups [][]byte
	// prime are the distinct grids simulated during set-up whose answers
	// the timed phase must reproduce from the result cache (warm-grid).
	prime [][]byte
	// timed is the measured closed-loop sequence.
	timed [][]byte
	// primeIdx maps each timed request to its prime entry (warm-grid).
	primeIdx []int
	// study marks the async study endpoint; otherwise sync grids.
	study bool
	// memCache starts the daemon without -cache-dir, so its result
	// cache is memory only (study: see NOTES.md on the disk's speed).
	memCache bool
}

// size scales the generated inputs. The full size is what the benchmark
// measures; the tiny size is the self-test's.
type size struct {
	measureJobs int     // measured jobs per grid cell
	warmupJobs  int     // warm-up jobs per grid cell
	budget      int     // study cell budget
	primeGrids  int     // distinct warm-grid grids
	warmups     int     // untimed requests per set-up
	rate        float64 // timed requests per second of --seconds
	minTimed    int     // floor on timed requests: p90 needs ≥10 beyond it
}

// workloadSizes holds each workload's full size. rate was chosen so the
// timed phase lasts about --seconds on a 2-core 2.1 GHz Xeon (study's
// with an on-disk result cache; with the memory cache it now runs, its
// phase lasts about half of that); the run still sends the same count
// on any machine, so faster code shows as a shorter phase, not as more
// work.
var workloadSizes = map[string]size{
	"cold-grid": {measureJobs: 200, warmupJobs: 60, warmups: 8, rate: 30, minTimed: 120},
	"warm-grid": {measureJobs: 200, warmupJobs: 60, primeGrids: 8, rate: 600, minTimed: 120},
	"study":     {budget: 24, warmups: 10, rate: 45, minTimed: 120},
}

// tinySize is the self-test size: a handful of small requests.
var tinySize = size{measureJobs: 20, warmupJobs: 5, budget: 8, primeGrids: 2, warmups: 1, minTimed: 6}

// Request seeds come from disjoint SplitMix64 streams of the workload
// seed, so timed, warm-up and prime requests never share a cell.
const (
	streamTimed  = 1
	streamWarmup = 2
	streamPrime  = 3
	streamOrder  = 4
)

// cellSeed derives a positive spec seed for request i of stream.
func cellSeed(seed int64, stream, i int) int64 {
	return lab.DeriveSeed(seed, int64(stream), int64(i))&(1<<40-1) + 1
}

// gridBody is one grid on the paper's 10-node calibrated cluster: the
// out-of-order, farm and cache-oriented policies at two loads. 20 GB
// node caches (a fifth of the paper's) keep every node's LRU evicting.
func gridBody(seed int64, sz size) []byte {
	return []byte(fmt.Sprintf(`{"base":{"version":1,"params":{"nodes":10,"cache_gb":20},`+
		`"policy":{"name":"outoforder"},"workload":{"name":"poisson"},"load_jobs_per_hour":1.0,`+
		`"seed":%d,"warmup_jobs":%d,"measure_jobs":%d},`+
		`"variants":[{"label":"out-of-order"},{"label":"farm","policy":{"name":"farm"}},`+
		`{"label":"cache-oriented","policy":{"name":"cacheoriented"}}],"loads":[0.8,1.2]}`,
		seed, sz.warmupJobs, sz.measureJobs))
}

// gridCells is the number of cells gridBody expands to.
const gridCells = 6

// studyBody is a successive-halving study shaped like
// examples/specfile/study.json: delayed vs adaptive scheduling over
// delay and stripe axes on a small cluster with node churn.
func studyBody(seed int64, sz size) []byte {
	return []byte(fmt.Sprintf(`{"base":{"version":1,`+
		`"params":{"nodes":3,"cache_gb":6,"mean_job_events":1000,"dataspace_gb":60},`+
		`"policy":{"name":"delayed"},"faults":{"mtbf_hours":150,"repair_hours":4,"cache_loss":true},`+
		`"load_jobs_per_hour":1.0,"seed":%d,"warmup_jobs":10,"measure_jobs":40,"overload_backlog":300},`+
		`"axes":[{"name":"policy","values":["delayed","adaptive"]},`+
		`{"name":"delay_hours","min":0,"max":48,"steps":3},`+
		`{"name":"stripe_events","min":200,"max":5000,"steps":3,"scale":"log"}],`+
		`"objective":{"metric":"mean_speedup","direction":"max"},`+
		`"search":{"algorithm":"halving","budget_cells":%d,"replications":4,"eta":2,"seed":1}}`,
		seed, sz.budget))
}

// timedCount is the number of timed requests for a run of the given
// length.
func timedCount(sz size, seconds int) int {
	return max(sz.minTimed, int(math.Ceil(sz.rate*float64(seconds))))
}

// newPlan generates the request sequence of workload name for seed.
func newPlan(name string, seed int64, seconds int, tiny bool) (*plan, error) {
	sz, ok := workloadSizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want cold-grid, warm-grid or study)", name)
	}
	if tiny {
		sz = tinySize
	}
	n := timedCount(sz, seconds)
	p := &plan{}
	switch name {
	case "cold-grid":
		for i := 0; i < sz.warmups; i++ {
			p.warmups = append(p.warmups, gridBody(cellSeed(seed, streamWarmup, i), sz))
		}
		for i := 0; i < n; i++ {
			p.timed = append(p.timed, gridBody(cellSeed(seed, streamTimed, i), sz))
		}
	case "warm-grid":
		for d := 0; d < sz.primeGrids; d++ {
			p.prime = append(p.prime, gridBody(cellSeed(seed, streamPrime, d), sz))
		}
		order := rand.New(rand.NewSource(lab.DeriveSeed(seed, streamOrder)))
		for i := 0; i < n; i++ {
			d := order.Intn(len(p.prime))
			p.primeIdx = append(p.primeIdx, d)
			p.timed = append(p.timed, p.prime[d])
		}
	case "study":
		p.study, p.memCache = true, true
		for i := 0; i < sz.warmups; i++ {
			p.warmups = append(p.warmups, studyBody(cellSeed(seed, streamWarmup, i), sz))
		}
		for i := 0; i < n; i++ {
			p.timed = append(p.timed, studyBody(cellSeed(seed, streamTimed, i), sz))
		}
	}
	return p, nil
}
