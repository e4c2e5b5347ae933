package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"physched/client"
	"physched/internal/cluster"
	"physched/internal/job"
	"physched/internal/lab"
	"physched/internal/opt"
	"physched/internal/resultcache"
	"physched/internal/sched"
	"physched/internal/spec"
	"physched/internal/workload"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// probe accumulates one replay's layer timings (nanoseconds) and exact
// counts. Cells run concurrently on the replay pool, so every field
// updated from inside a cell is atomic.
type probe struct {
	// Spans of the replay's own steps, which run on the replay goroutine.
	wallNs, planNs, hashNs, optNs, lineNs int64
	requests, studies                     int

	// Layer calls made from inside cells.
	taskNs                      atomic.Int64 // pool hook: time inside cell tasks
	labRunNs                    atomic.Int64 // lab.Run of cache misses: from the miss to the Put
	progressNs                  atomic.Int64 // progress-line encoding inside tasks
	getNs, putNs, aggPutNs      atomic.Int64
	gets, hits, puts            atomic.Int64
	schedNs, schedCalls         atomic.Int64
	sourceNs, jobs              atomic.Int64
	simulated, evaluated, cells atomic.Int64

	// Exact counts from the simulated cells.
	steps, dispatches, preemptions  atomic.Int64
	fromCache, fromRemote, fromTape atomic.Int64
	evictions, inserts              atomic.Int64
	studySimulated, studyEvaluated  atomic.Int64
}

// timedPolicy times every sched.Policy call a cell makes. Calls the
// policy makes back into the cluster are part of the policy's time.
type timedPolicy struct {
	sched.Policy
	p     *probe
	depth int // a cell runs on one goroutine; nested calls time once
}

func (t *timedPolicy) enter() int64 {
	t.depth++
	if t.depth > 1 {
		return 0
	}
	return nanotime()
}

func (t *timedPolicy) leave(start int64) {
	t.depth--
	if t.depth == 0 {
		t.p.schedNs.Add(nanotime() - start)
		t.p.schedCalls.Add(1)
	}
}

func (t *timedPolicy) JobArrived(j *job.Job) {
	s := t.enter()
	t.Policy.JobArrived(j)
	t.leave(s)
}

func (t *timedPolicy) SubjobDone(n *cluster.Node, sj *job.Subjob) {
	s := t.enter()
	t.Policy.SubjobDone(n, sj)
	t.leave(s)
}

// timedObserver keeps sched.NodeStateObserver visible through the
// wrapper: lab hands lost work to policies that implement it, so hiding
// it would change what the simulation does.
type timedObserver struct {
	*timedPolicy
	obs sched.NodeStateObserver
}

func (t timedObserver) NodeDown(n *cluster.Node, lost *job.Subjob) {
	s := t.enter()
	t.obs.NodeDown(n, lost)
	t.leave(s)
}

func (t timedObserver) NodeUp(n *cluster.Node) {
	s := t.enter()
	t.obs.NodeUp(n)
	t.leave(s)
}

func wrapPolicy(pol sched.Policy, p *probe) sched.Policy {
	tp := &timedPolicy{Policy: pol, p: p}
	if obs, ok := pol.(sched.NodeStateObserver); ok {
		return timedObserver{tp, obs}
	}
	return tp
}

// timedSource times the workload generator.
type timedSource struct {
	src workload.Source
	p   *probe
}

func (t timedSource) Next() *job.Job {
	s := nanotime()
	j := t.src.Next()
	t.p.sourceNs.Add(nanotime() - s)
	t.p.jobs.Add(1)
	return j
}

// timedCache times the result store the replay shares across requests,
// like the daemon's. A cell that misses the store is simulated by
// lab.Run and then stored, both on the cell's goroutine, so the time
// from its miss to its Put is the lab.run span. With record set, result
// puts are kept by key for the study count pass.
type timedCache struct {
	inner  resultcache.Store
	r      *replayer
	record bool

	mu     sync.Mutex
	stored map[string][]byte // key → encoded stored result
	missAt map[string]int64  // key → when its Get missed
}

func (c *timedCache) Get(key string) (lab.Result, bool) {
	timed := c.r.timed("resultcache")
	var s int64
	if timed {
		s = nanotime()
	}
	r, ok := c.inner.Get(key)
	p := c.r.p
	p.gets.Add(1)
	if ok {
		p.hits.Add(1)
	}
	if timed {
		e := nanotime()
		p.getNs.Add(e - s)
		c.r.child("resultcache.get", s, e)
		if !ok {
			c.mu.Lock()
			c.missAt[key] = e
			c.mu.Unlock()
		}
	}
	return r, ok
}

func (c *timedCache) Put(key string, r lab.Result) {
	p := c.r.p
	if c.r.timed("resultcache") {
		s := nanotime()
		c.mu.Lock()
		missed, ok := c.missAt[key]
		delete(c.missAt, key)
		c.mu.Unlock()
		if ok {
			p.labRunNs.Add(s - missed)
			c.r.child("lab.run", missed, s)
		}
		c.inner.Put(key, r)
		e := nanotime()
		c.r.child("resultcache.put", s, e)
		p.putNs.Add(e - s)
	} else {
		c.inner.Put(key, r)
	}
	p.puts.Add(1)
	p.simulated.Add(1)
	st := r.Cluster
	p.dispatches.Add(st.Dispatches)
	p.preemptions.Add(st.Preemptions)
	p.fromCache.Add(st.EventsFromCache)
	p.fromRemote.Add(st.EventsFromRemote)
	p.fromTape.Add(st.EventsFromTape)
	if c.record {
		b, _ := json.Marshal(r) // a Result always marshals: no channels or funcs
		c.mu.Lock()
		c.stored[key] = b
		c.mu.Unlock()
	}
}

func (c *timedCache) putAggregate(key string, a lab.Aggregate) {
	if !c.r.timed("resultcache") {
		c.inner.PutAggregate(key, a)
		return
	}
	s := nanotime()
	c.inner.PutAggregate(key, a)
	e := nanotime()
	c.r.p.aggPutNs.Add(e - s)
	c.r.child("resultcache.put", s, e)
}

// cellSlot receives one instrumented cell's cluster for the exact counts
// read after the cell ran.
type cellSlot struct{ cl *cluster.Cluster }

// replayer re-executes requests in-process through the library's public
// functions, mirroring what physchedd does for each request, with a span
// around every layer call. Timings and counts land in p, which the
// caller may swap between phases (priming, then the timed sequence);
// the study count pass has a probe of its own so that it never mixes
// into the replay's own spans.
type replayer struct {
	p     *probe
	count *probe
	pool  *lab.Pool
	cache *timedCache
	slots []*cellSlot

	// spans is nil outside traced runs. req is the request being
	// replayed and parent the span that cell-side calls belong to; both
	// are set before cells are submitted to the pool.
	spans  *spanLog
	req    int
	parent int

	// untimed names a layer whose wrapper the replay leaves out: "all"
	// for the bare replay that prices the wrappers, one of "resultcache",
	// "sched", "workload" or "opt" for the self-test that proves the
	// layer checks notice a missing layer.
	untimed string
}

// newReplayer returns a replayer whose result store is memory over disk
// at cacheDir, as physchedd opens it, or memory alone when cacheDir is
// empty.
func newReplayer(workers int, cacheDir string, study bool) (*replayer, error) {
	store, err := resultcache.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	r := &replayer{p: &probe{}, count: &probe{}, pool: lab.NewPool(workers)}
	r.cache = &timedCache{inner: store, r: r, record: study, stored: map[string][]byte{}, missAt: map[string]int64{}}
	r.pool.SetHooks(&lab.PoolHooks{
		Now:  nanotime,
		Wait: func(int64) {}, // queue wait is read from the daemon's /metrics
		Run:  func(ns int64) { r.p.taskNs.Add(ns) },
	})
	return r, nil
}

// timed reports whether the replay times layer.
func (r *replayer) timed(layer string) bool { return r.untimed != "all" && r.untimed != layer }

// use directs the replay's timings and counts into p from now on.
func (r *replayer) use(p *probe) { r.p = p }

// child records a span under the current parent span.
func (r *replayer) child(name string, start, end int64) {
	r.spans.add(r.req, r.parent, name, start, end)
}

func (r *replayer) close() { r.pool.Close() }

// instrument wraps a compiled cell scenario's policy and workload and
// captures its cluster. It never changes what the cell computes.
func (r *replayer) instrument(s *lab.Scenario, p *probe) {
	if r.untimed == "all" {
		return
	}
	slot := &cellSlot{}
	r.slots = append(r.slots, slot)
	if newPolicy := s.NewPolicy; r.timed("sched") {
		s.NewPolicy = func() sched.Policy { return wrapPolicy(newPolicy(), p) }
	}
	if newWorkload := s.NewWorkload; r.timed("workload") {
		s.NewWorkload = func(seed int64, jph float64) workload.Source {
			return timedSource{src: newWorkload(seed, jph), p: p}
		}
	}
	s.Hooks = func(cl *cluster.Cluster) { slot.cl = cl }
}

// collectSlots folds the captured clusters into p's exact counts.
func (r *replayer) collectSlots(p *probe) {
	for _, s := range r.slots {
		if s.cl == nil {
			continue // served from the cache, never simulated
		}
		p.steps.Add(int64(s.cl.Engine().Steps()))
		for _, n := range s.cl.Nodes() {
			p.evictions.Add(n.Cache.EvictedTotal())
			p.inserts.Add(n.Cache.InsertedTotal())
		}
	}
	r.slots = r.slots[:0]
}

// grid replays one grid request the way physchedd's POST /v1/grids
// handles it and returns the terminal line it must have answered.
func (r *replayer) grid(body []byte) ([]byte, error) {
	t0 := nanotime()
	root := r.spans.open(r.req, 0, "replay.request", t0)
	defer func() { r.spans.end(root, nanotime()) }()
	planSpan := r.spans.open(r.req, root, "spec.plan", t0)
	g, err := spec.ParseGrid(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	gridHash, err := g.Hash()
	if err != nil {
		return nil, err
	}
	lg, err := g.Compile()
	if err != nil {
		return nil, err
	}
	cells := lg.Cells()
	nLoads, nSeeds := max(len(lg.Loads), 1), max(len(lg.Seeds), 1)
	index := func(c lab.Cell) int { return (c.Variant*nLoads+c.LoadIdx)*nSeeds + c.SeedIdx }
	keys := make([]string, len(cells))
	th := nanotime()
	for i, c := range cells {
		if keys[i], err = g.CellSpec(c).Hash(); err != nil {
			return nil, err
		}
	}
	he := nanotime()
	r.p.hashNs += he - th
	r.spans.add(r.req, planSpan, "spec.hash", th, he)
	var aggKeys []string
	if len(lg.Seeds) > 1 {
		for vi := 0; vi < max(len(lg.Variants), 1); vi++ {
			for li := 0; li < nLoads; li++ {
				k, err := g.AggregateKey(vi, li)
				if err != nil {
					return nil, err
				}
				aggKeys = append(aggKeys, k)
			}
		}
	}
	pe := nanotime()
	r.p.planNs += pe - t0
	r.spans.end(planSpan, pe)

	// Instrument a copy of the compiled grid: every variant overlays a
	// complete scenario, so the wrappers go on after the overlay.
	ig := lg
	if len(ig.Variants) == 0 {
		r.instrument(&ig.Base, r.p)
	} else {
		ig.Variants = make([]lab.Variant, len(lg.Variants))
		for i, v := range lg.Variants {
			mutate := v.Mutate
			ig.Variants[i] = lab.Variant{Label: v.Label, NewPolicy: v.NewPolicy, Mutate: func(s *lab.Scenario) {
				if mutate != nil {
					mutate(s)
				}
				r.instrument(s, r.p)
			}}
		}
	}
	te := nanotime()
	r.parent = r.spans.open(r.req, root, "pool.execute", te)
	rs, err := ig.Execute(lab.Options{
		Pool:  r.pool,
		Cache: r.cache,
		Keys:  func(c lab.Cell) (string, bool) { return keys[index(c)], true },
		Progress: func(u lab.ProgressUpdate) {
			// physchedd encodes a progress line per cell; so does the replay.
			s := nanotime()
			json.Marshal(client.ProgressLine{
				Type: "progress", Done: u.Done, Total: u.Total,
				Label: u.Label, Load: u.Load, Seed: u.Seed,
				Overloaded: u.Overloaded, FromCache: u.FromCache,
			})
			e := nanotime()
			r.p.progressNs.Add(e - s)
			r.child("service.encode", s, e)
		},
	})
	ee := nanotime()
	r.spans.end(r.parent, ee)
	if err != nil {
		return nil, err
	}
	r.collectSlots(r.p)

	tl := nanotime()
	r.parent = r.spans.open(r.req, root, "service.encode", tl)
	agg0 := r.p.aggPutNs.Load()
	line := client.ResultLine{Type: "result", GridHash: gridHash, CacheHits: rs.CacheHits}
	for i, res := range rs.Results {
		line.Cells = append(line.Cells, client.CellResult{Hash: keys[i], Label: rs.Cells[i].Label, Result: res})
	}
	if len(rs.Seeds) > 1 {
		for vi, label := range rs.Labels {
			for li, load := range rs.Loads {
				agg := rs.Aggregate(vi, li)
				hash := aggKeys[vi*nLoads+li]
				r.cache.putAggregate(hash, agg)
				line.Aggregates = append(line.Aggregates, client.AggregateResult{
					Hash: hash, Label: label, Load: load, Aggregate: agg,
				})
			}
		}
	}
	out, err := json.Marshal(line)
	le := nanotime()
	r.spans.end(r.parent, le)
	r.p.lineNs += le - tl - (r.p.aggPutNs.Load() - agg0)
	r.p.requests++
	r.p.cells.Add(int64(len(cells)))
	r.p.evaluated.Add(int64(len(cells)))
	return out, err
}

// studyCell is one completed study cell as its progress update names it.
type studyCell struct {
	label     string
	seed      int64
	fromCache bool
}

// study replays one study request the way physchedd's POST
// /v1/studies runs it and returns the terminal study line. The cells it
// simulated are then run once more, instrumented, for the exact counts
// opt.Run gives no handle on; each must reproduce its cached bytes.
func (r *replayer) study(body []byte) ([]byte, error) {
	t0 := nanotime()
	root := r.spans.open(r.req, 0, "replay.request", t0)
	defer func() { r.spans.end(root, nanotime()) }()
	st, err := opt.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	prep, err := st.Prepare()
	if err != nil {
		return nil, err
	}
	pe := nanotime()
	r.p.planNs += pe - t0
	r.spans.add(r.req, root, "spec.plan", t0, pe)

	var done []studyCell
	task0 := r.p.taskNs.Load()
	ts := nanotime()
	r.parent = r.spans.open(r.req, root, "opt.run", ts)
	rep, err := prep.Run(opt.Options{
		Pool:  r.pool,
		Cache: r.cache,
		Progress: func(u opt.Progress) {
			// physchedd encodes a progress line per cell; so does the replay.
			s := nanotime()
			json.Marshal(client.ProgressLine{
				Type: "progress", Done: u.Done, Total: u.Total,
				Label: u.Label, Seed: u.Seed,
				Overloaded: u.Overloaded, FromCache: u.FromCache,
			})
			done = append(done, studyCell{u.Label, u.Seed, u.FromCache})
			e := nanotime()
			r.p.progressNs.Add(e - s)
			r.child("service.encode", s, e)
		},
	})
	re := nanotime()
	r.spans.end(r.parent, re)
	if err != nil {
		return nil, err
	}
	if r.timed("opt") {
		r.p.optNs += re - ts - (r.p.taskNs.Load() - task0)
	}

	tl := nanotime()
	out, err := json.Marshal(client.StudyLine{Type: "study", StudyHash: prep.Hash, Report: rep})
	le := nanotime()
	r.p.lineNs += le - tl
	r.spans.add(r.req, root, "service.encode", tl, le)
	r.p.requests++
	r.p.studies++
	r.p.cells.Add(int64(len(done)))
	r.p.evaluated.Add(int64(rep.EvaluatedCells))
	r.p.studySimulated.Add(int64(rep.SimulatedCells))
	r.p.studyEvaluated.Add(int64(rep.EvaluatedCells))
	if err != nil || r.untimed == "all" {
		return out, err
	}
	// The count pass is the benchmark's own work, outside the replay's
	// layer accounting.
	err = r.countStudyCells(prep.Study.Base, done)
	r.count.wallNs += nanotime() - le
	r.spans.add(r.req, root, "bench.count_pass", le, nanotime())
	return out, err
}

// countStudyCells re-runs each simulated study cell with the wrappers and
// the cluster capture installed. The cell's spec is the study base with
// its label's axis choices applied and its replica seed bound; its hash
// must be a key the study stored, and the instrumented result must equal
// the stored bytes.
func (r *replayer) countStudyCells(base spec.Spec, cells []studyCell) error {
	for _, c := range cells {
		if c.fromCache {
			continue
		}
		s, err := applyLabel(base, c.label)
		if err != nil {
			return err
		}
		s.Seed = c.seed
		key, err := s.Hash()
		if err != nil {
			return err
		}
		want, ok := r.cache.stored[key]
		if !ok {
			return fmt.Errorf("study cell %q seed %d: spec hash %s was never stored", c.label, c.seed, key)
		}
		sc, err := s.Scenario()
		if err != nil {
			return err
		}
		r.instrument(&sc, r.count)
		t := nanotime()
		res, err := lab.RunE(sc)
		r.count.taskNs.Add(nanotime() - t)
		if err != nil {
			return err
		}
		got, _ := json.Marshal(res.Stored())
		if !bytes.Equal(got, want) {
			return fmt.Errorf("study cell %q seed %d: instrumented re-run differs from the stored result", c.label, c.seed)
		}
	}
	r.collectSlots(r.count)
	return nil
}

// applyLabel binds a candidate label's "axis=value" choices onto base.
// It knows the axes the study workload searches.
func applyLabel(base spec.Spec, label string) (spec.Spec, error) {
	s := base
	for _, part := range strings.Fields(label) {
		name, val, _ := strings.Cut(part, "=")
		switch name {
		case "policy":
			s.Policy.Name = val
		case "delay_hours":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, err
			}
			s.Policy.DelayHours = v
		case "stripe_events":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, err
			}
			s.Policy.StripeEvents = int64(v)
		default:
			return s, fmt.Errorf("study label %q: axis %q is not one the benchmark replays", label, name)
		}
	}
	return s, nil
}
