package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"physched/client"
)

// minCoverage is the share of replay wall time the layer self times
// must account for; less means a layer is missing from the accounting.
const minCoverage = 0.90

// heldOutRequests is the prefix of the held-out seed's sequence whose
// exact counts a traced run records.
const heldOutRequests = 8

// The traced run prices the wrappers by replaying the first
// 1/wrapperShare of the timed sequence with and without them.
const wrapperShare = 10

// scrape reads and parses the daemon's /metrics.
func scrape(d *daemon) (*client.ParsedMetrics, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	text, err := d.api.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return client.ParseMetrics(text)
}

// histDelta is the growth of one histogram series' sum and count.
func histDelta(before, after *client.ParsedMetrics, name string, labels map[string]string) (sum, count float64) {
	b, _ := before.HistogramAt(name, labels)
	a, _ := after.HistogramAt(name, labels)
	return a.Sum - b.Sum, a.Count - b.Count
}

// valueDelta is the growth of one counter series.
func valueDelta(before, after *client.ParsedMetrics, name string, labels map[string]string) float64 {
	b, _ := before.Value(name, labels)
	a, _ := after.Value(name, labels)
	return a - b
}

// journalBytesPerJob is the mean size of the job journals under the
// state directory. -max-jobs retention deletes the oldest journals, so
// the mean over the survivors stands for the growth per job.
func journalBytesPerJob(stateDir string) float64 {
	files, _ := filepath.Glob(filepath.Join(stateDir, "*.job.ndjson"))
	var total int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	return ratio(float64(total), float64(len(files)))
}

// servicePhase boots a fresh daemon, runs the timed sequence on it and
// stops it. A traced phase also records client spans and scrapes
// /metrics around the timed sequence.
type servicePhase struct {
	ph            *phase
	primed        [][]byte
	before, after *client.ParsedMetrics
	journal       float64
}

func runService(cfg config, p *plan, dir string, spans *spanLog) (*servicePhase, error) {
	traced := spans != nil
	d, _, primed, err := setUp(cfg, p, dir)
	if err != nil {
		return nil, err
	}
	sp := &servicePhase{primed: primed}
	if traced {
		if sp.before, err = scrape(d); err != nil {
			d.kill()
			return nil, err
		}
	}
	sp.ph, err = runPhase(cfg, d, p, spans)
	if err == nil && traced {
		sp.after, err = scrape(d)
		sp.journal = journalBytesPerJob(d.stateDir)
	}
	if d.alive() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}
	return sp, err
}

// tracedRun measures the sequence untraced and traced on fresh daemons,
// replays it in-process on one worker, checks every answer and prints
// the per-layer metrics.
func tracedRun(cfg config, p *plan, dir string) (*result, error) {
	attempted := len(p.timed)
	plain, err := runService(cfg, p, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return failed(attempted, attempted, err)
	}
	spans := &spanLog{}
	svc, err := runService(cfg, p, filepath.Join(dir, "traced"), spans)
	if err != nil {
		return failed(attempted, attempted, err)
	}

	// One worker, so the layer self times add up to the replay's wall
	// time instead of overlapping.
	cacheDir := filepath.Join(dir, "replay-cache")
	if p.memCache {
		cacheDir = ""
	}
	rp, err := newReplayer(1, cacheDir, p.study)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	rp.spans = spans
	rp.untimed = cfg.untimed
	primeP, timed := rp.p, &probe{}
	if bad, err := verify(rp, p, svc.primed, svc.ph, timed); err != nil {
		return failed(attempted, bad, err)
	}
	// One file per workload, overwritten by its next traced run, so the
	// spans of many seeds do not pile up in the checkout.
	spanFile := filepath.Join(cfg.work, "spans", cfg.workload+".ndjson")
	if err := spans.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans.spans), spanFile)
	counts := exactCounts(primeP, timed, rp.count)
	if err := checkCounts(cfg, cfg.seed, len(p.timed), counts); err != nil {
		return failed(attempted, 0, err)
	}
	if err := heldOutCounts(cfg); err != nil {
		return failed(attempted, 0, err)
	}

	m, err := layerMetrics(p, svc, plain.ph, primeP, timed, rp.count, counts)
	if err != nil {
		return failed(attempted, 0, err)
	}
	if err := checkLayers(m["trace.coverage"].Value, timed, rp.count); err != nil {
		return failed(attempted, 0, err)
	}
	bare, wrapped, err := wrapperCost(p)
	if err != nil {
		return failed(attempted, 0, err)
	}
	m["trace.replay_overhead_ratio"] = metric{ratio(bare, wrapped), "ratio"}
	return &result{Correct: true, Attempted: attempted, Metrics: m}, nil
}

// checkLayers fails a traced replay whose layer accounting has a hole.
// coverage is the share of replay wall time inside directly timed layer
// calls; below minCoverage a layer is missing. Every layer the workload
// goes through must also have been timed: a wrapper left out of a layer
// nested inside a timed call (sched and workload run inside lab.Run)
// would not lower the coverage.
func checkLayers(coverage float64, timed, count *probe) error {
	if coverage < minCoverage {
		return fmt.Errorf("directly timed layer calls cover %.1f%% of replay wall time, below %.0f%%: %.1f%% of it is in no layer's span, so a layer is missing from the accounting",
			100*coverage, 100*minCoverage, 100*(1-coverage))
	}
	simulated := timed.steps.Load()+count.steps.Load() > 0
	var missing []string
	for _, l := range []struct {
		name    string
		applies bool
		ns      int64
	}{
		{"spec", true, timed.planNs},
		{"resultcache", true, timed.getNs.Load()},
		{"service.encode", true, timed.lineNs},
		{"lab.run", timed.simulated.Load() > 0, timed.labRunNs.Load()},
		{"sched", simulated, timed.schedNs.Load() + count.schedNs.Load()},
		{"workload", simulated, timed.sourceNs.Load() + count.sourceNs.Load()},
		{"opt", timed.studies > 0, timed.optNs},
	} {
		if l.applies && l.ns == 0 {
			missing = append(missing, l.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("the replay went through %v without timing them: a layer is missing from the accounting", missing)
	}
	return nil
}

// wrapperCost prices the replay's instrumentation: it replays a prefix
// of the timed sequence on one worker with every wrapper, span and hook
// installed and with none of them, alternating, and returns the bare
// and the wrapped wall time. The daemon runs without any of them, so
// the per-layer times of a traced run are inflated by this much.
func wrapperCost(p *plan) (bare, wrapped float64, err error) {
	q := *p
	q.timed = p.timed[:max(len(p.timed)/wrapperShare, 1)]
	for _, untimed := range []string{"all", "", "", "all"} {
		rp, err := newReplayer(1, "", q.study)
		if err != nil {
			return 0, 0, err
		}
		rp.untimed = untimed
		if untimed == "all" {
			rp.cache.record = false
		} else {
			rp.spans = &spanLog{}
		}
		timed := &probe{}
		_, _, err = replayAll(rp, &q, timed)
		rp.close()
		if err != nil {
			return 0, 0, err
		}
		wall := float64(timed.wallNs - rp.count.wallNs)
		if untimed == "all" {
			bare += wall
		} else {
			wrapped += wall
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests replayed bare in %.3fs, wrapped in %.3fs (sum of two each)\n", len(q.timed), bare/1e9, wrapped/1e9)
	return bare, wrapped, nil
}

// heldOutCounts records the exact counts of a second seed's sequence
// prefix, so a later claim can be checked on a seed nobody tuned on.
func heldOutCounts(cfg config) error {
	seed := cfg.seed ^ 0x5eed
	p, err := newPlan(cfg.workload, seed, cfg.seconds, cfg.tiny)
	if err != nil {
		return err
	}
	p.timed = p.timed[:min(heldOutRequests, len(p.timed))]
	rp, err := newReplayer(2, "", p.study)
	if err != nil {
		return err
	}
	defer rp.close()
	primeP, timed := rp.p, &probe{}
	if _, _, err := replayAll(rp, p, timed); err != nil {
		return err
	}
	counts := exactCounts(primeP, timed, rp.count)
	fmt.Fprintf(os.Stderr, "perfbench: held-out seed %d (%d requests): %v\n", seed, len(p.timed), counts)
	return checkCounts(cfg, seed, len(p.timed), counts)
}

// routes are the HTTP routes one request of the workload goes through.
func routes(p *plan) []map[string]string {
	if p.study {
		return []map[string]string{
			{"route": "POST /v1/studies", "status": "202"},
			{"route": "GET /v1/jobs/{id}/stream", "status": "200"},
		}
	}
	return []map[string]string{{"route": "POST /v1/grids", "status": "200"}}
}

// layerMetrics derives the per-layer metrics: service, client and pool
// from the traced phase's /metrics deltas and client latencies; spec,
// resultcache, lab, sched, workload and opt from the replay's spans;
// the exact counts from the replay's simulated cells.
func layerMetrics(p *plan, svc *servicePhase, plain *phase, prime, timed, count *probe, counts map[string]float64) (map[string]metric, error) {
	b, a := svc.before, svc.after
	reqs := float64(len(p.timed))

	var httpS float64
	for _, labels := range routes(p) {
		s, _ := histDelta(b, a, "physchedd_http_request_duration_seconds", labels)
		httpS += s
	}
	httpMs := httpS * 1000 / reqs
	jobS, jobN := histDelta(b, a, "physchedd_job_duration_seconds", map[string]string{"kind": "study"})
	waitS, waitN := histDelta(b, a, "physchedd_pool_queue_wait_seconds", nil)
	cellS, cellN := histDelta(b, a, "physchedd_cell_duration_seconds", nil)
	workers, _ := a.Value("physchedd_pool_workers", nil)

	// The daemon's own cache counters must agree with the replay's.
	hit := valueDelta(b, a, "physchedd_cache_gets_total", map[string]string{"kind": "result", "outcome": "hit"})
	miss := valueDelta(b, a, "physchedd_cache_gets_total", map[string]string{"kind": "result", "outcome": "miss"})
	if got, want := ratio(hit, hit+miss), counts["resultcache.hit_ratio"]; got != want {
		return nil, fmt.Errorf("daemon result-cache hit ratio %v differs from the replay's %v", got, want)
	}

	sum := func(f func(*probe) int64, ps ...*probe) float64 {
		var t int64
		for _, p := range ps {
			t += f(p)
		}
		return float64(t)
	}
	all := []*probe{prime, timed, count}
	simulated := sum(func(p *probe) int64 { return p.simulated.Load() }, prime, timed)
	events := sum(func(p *probe) int64 { return p.fromCache.Load() + p.fromRemote.Load() + p.fromTape.Load() }, prime, timed)

	// lab.Run of every cell that missed the store.
	runNs := float64(timed.labRunNs.Load())
	nsPerEvent := ratio(runNs, float64(timed.steps.Load()))
	if p.study { // opt builds its own scenarios; the count pass re-ran them
		nsPerEvent = ratio(float64(count.taskNs.Load()), float64(count.steps.Load()))
	}
	schedCalls := sum(func(p *probe) int64 { return p.schedCalls.Load() }, timed, count)
	jobs := sum(func(p *probe) int64 { return p.jobs.Load() }, timed, count)

	// Directly timed layer calls only. Pool dispatch and the lab
	// bookkeeping around each cell are in no span and count as the gap.
	// opt's self time is opt.Run minus its pool tasks: opt builds its
	// cells internally, so its own work cannot be wrapped from outside.
	covered := timed.planNs + timed.getNs.Load() + timed.putNs.Load() + timed.aggPutNs.Load() +
		timed.labRunNs.Load() + timed.progressNs.Load() + timed.lineNs + timed.optNs

	m := map[string]metric{
		"service.http_ms_mean":    {httpMs, "ms"},
		"service.job_ms_mean":     {ratio(jobS*1000, jobN), "ms"},
		"client.overhead_ms_mean": {mean(svc.ph.latMs) - httpMs, "ms"},

		"spec.plan_us_per_request": {ratio(float64(timed.planNs), float64(timed.requests)) / 1e3, "us"},
		"spec.hash_us_per_cell":    {ratio(float64(timed.hashNs), float64(timed.cells.Load())) / 1e3, "us"},

		"resultcache.get_us_mean":   {ratio(float64(timed.getNs.Load()), float64(timed.gets.Load())) / 1e3, "us"},
		"resultcache.put_us_mean":   {ratio(float64(timed.putNs.Load()), float64(timed.puts.Load())) / 1e3, "us"},
		"resultcache.hit_ratio":     {counts["resultcache.hit_ratio"], "ratio"},
		"resultcache.puts_per_cell": {ratio(float64(timed.puts.Load()), float64(timed.evaluated.Load())), "count"},

		"pool.queue_wait_ms_mean": {ratio(waitS*1000, waitN), "ms"},
		"pool.cell_ms_mean":       {ratio(cellS*1000, cellN), "ms"},
		"pool.utilization":        {ratio(cellS, workers*svc.ph.wallS), "ratio"},

		"lab.run_ms_per_cell":  {ratio(runNs, float64(timed.simulated.Load())) / 1e6, "ms"},
		"lab.ns_per_sim_event": {nsPerEvent, "ns"},

		"sim.events_per_cell": {counts["sim.events_per_cell"], "count"},

		"sched.ns_per_call":    {ratio(sum(func(p *probe) int64 { return p.schedNs.Load() }, timed, count), schedCalls), "ns"},
		"sched.calls_per_cell": {ratio(sum(func(p *probe) int64 { return p.schedCalls.Load() }, all...), simulated), "count"},

		"workload.ns_per_job": {ratio(sum(func(p *probe) int64 { return p.sourceNs.Load() }, timed, count), jobs), "ns"},

		"cluster.dispatches_per_cell":  {counts["cluster.dispatches_per_cell"], "count"},
		"cluster.preemptions_per_cell": {counts["cluster.preemptions_per_cell"], "count"},
		"cluster.cache_event_share":    {ratio(sum(func(p *probe) int64 { return p.fromCache.Load() }, prime, timed), events), "ratio"},

		"cache.evictions_per_cell": {counts["cache.evictions_per_cell"], "count"},
		"cache.inserts_per_cell":   {ratio(sum(func(p *probe) int64 { return p.inserts.Load() }, all...), simulated), "count"},

		"opt.self_ms_per_study": {ratio(float64(timed.optNs), float64(timed.studies)) / 1e6, "ms"},
		"opt.simulated_share":   {counts["opt.simulated_share"], "ratio"},

		"journal.bytes_per_job": {svc.journal, "B"},

		"trace.overhead_ratio": {svc.ph.cellsPerS() / plain.cellsPerS(), "ratio"},
		"trace.coverage":       {ratio(float64(covered), float64(timed.wallNs-count.wallNs)), "ratio"},
	}
	return m, nil
}
