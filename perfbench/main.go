// Command perfbench is the service benchmark of physched. It boots the
// real physchedd binary the way the README deploys it (on-disk result
// cache, job state directory, one pool worker per CPU), drives one
// workload through the public physched/client package as a closed loop
// with a single client connection, and prints the end-to-end metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every answer is checked byte for byte against an in-process replay of
// the same request through the library's public functions. A run with a
// failed request, a wrong answer, a daemon that dies, or exact counts
// that differ from an earlier run of the same seed prints
// "correct": false and exits 1.
//
// With -trace 1 the run is a separate traced run: it measures the same
// sequence untraced and traced on fresh daemons, scrapes /metrics around
// the traced phase, replays the sequence in-process on one worker with a
// span around each layer call, and prints the per-layer metrics instead.
//
// Usage (run.py builds the binaries and supplies -daemon and -work):
//
//	perfbench -daemon BIN -work DIR --workload cold-grid|warm-grid|study
//	          --seed N --seconds S --trace 0|1 [-tiny] [-inject corrupt|kill]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // physchedd binary
	work     string // scratch root inside the checkout
	setups   int    // set-ups per untraced run; setup_s is their median
	tiny     bool   // self-test size
	inject   string // self-test fault: "corrupt" or "kill"
	untimed  string // self-test fault: the traced replay leaves this layer untimed

	// deadline is when the run's requests stop waiting, so that a daemon
	// that hangs fails the run well inside the three minutes a run may
	// take instead of stalling it.
	deadline time.Time
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: 10}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-grid, warm-grid or study")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed sends the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal length of the timed phase; sizes the request sequence")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "path to the physchedd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for daemon state, replay caches and count records")
	flag.BoolVar(&cfg.tiny, "tiny", false, "self-test size: a few small requests")
	flag.StringVar(&cfg.inject, "inject", "", "self-test fault: corrupt (flip a digit of one answer) or kill (SIGKILL the daemon mid-run)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.daemon == "" || cfg.work == "" || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon, -work and -workload are required")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. A nil result means the run could not
// even start (bad flags, no daemon); otherwise the result says whether
// it is correct, and err explains why not.
func run(cfg config) (*result, error) {
	cfg.deadline = time.Now().Add(150 * time.Second)
	p, err := newPlan(cfg.workload, cfg.seed, cfg.seconds, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return tracedRun(cfg, p, dir)
	}
	return measuredRun(cfg, p, dir)
}

// failed builds the result of a run that cannot vouch for its numbers.
func failed(attempted, nFailed int, err error) (*result, error) {
	return &result{Attempted: max(attempted, 1), Failed: max(nFailed, 1), Metrics: map[string]metric{}}, err
}

// setUp boots a daemon and runs the workload's warm-up and priming
// requests, returning the daemon ready for the first timed request, the
// set-up time from exec to that point, and the priming answers.
func setUp(cfg config, p *plan, dir string) (*daemon, float64, [][]byte, error) {
	start := time.Now()
	d, err := startDaemon(cfg.daemon, dir, p.memCache, cfg.deadline)
	if err != nil {
		return nil, 0, nil, err
	}
	for _, w := range p.warmups {
		if _, _, err := send(d, p.study, w, new(int64)); err != nil {
			d.kill()
			return nil, 0, nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	var primed [][]byte
	for _, pr := range p.prime {
		line, _, err := send(d, p.study, pr, new(int64))
		if err != nil {
			d.kill()
			return nil, 0, nil, fmt.Errorf("priming request: %w", err)
		}
		primed = append(primed, line)
	}
	return d, time.Since(start).Seconds(), primed, nil
}

// send issues one request and returns the raw terminal line the daemon
// answered and the number of cells the answer carries. A study is two
// calls, submit then stream; submitted receives the instant in between.
func send(d *daemon, study bool, body []byte, submitted *int64) ([]byte, int, error) {
	ctx, cancel := context.WithDeadline(context.Background(), d.deadline)
	defer cancel()
	if !study {
		res, err := d.api.RunGrid(ctx, body, nil)
		if err != nil {
			return nil, 0, err
		}
		return d.tap.lastLine(), len(res.Cells), nil
	}
	sub, err := d.api.SubmitStudy(ctx, body)
	if err != nil {
		return nil, 0, err
	}
	*submitted = nanotime()
	_, st, err := d.api.StreamJob(ctx, sub.JobID, nil)
	if err != nil {
		return nil, 0, err
	}
	if st == nil || st.Report == nil {
		return nil, 0, errors.New("study stream ended without a report")
	}
	return d.tap.lastLine(), st.Report.EvaluatedCells, nil
}

// windows splits the timed phase into equal request counts, whose
// throughput goes to standard error: it shows where in a run the host
// was slow. cells_per_s itself covers the whole phase.
const windows = 10

// phase is one pass of the timed sequence against a daemon.
type phase struct {
	latMs    []float64 // per succeeded request
	lines    [][]byte  // per request; nil when it failed
	cells    int
	failed   int
	wallS    float64
	cpuS     float64 // daemon user+system CPU over the phase
	rssMB    float64
	firstErr error

	winRate []float64 // cells returned per second of wall time, per window
}

func (ph *phase) cellsPerS() float64    { return float64(ph.cells) / ph.wallS }
func (ph *phase) cpuMsPerCell() float64 { return ph.cpuS * 1000 / float64(ph.cells) }

// runPhase sends the timed sequence as a closed loop on one connection,
// recording a client span per request (and per call of a study) into
// spans when it is not nil.
func runPhase(cfg config, d *daemon, p *plan, spans *spanLog) (*phase, error) {
	ph := &phase{}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if cfg.inject == "corrupt" {
		d.tap.corruptNext(min(2, len(p.timed)))
	}
	nWin := min(windows, len(p.timed))
	// One client connection needs one processor; leaving the other to
	// the daemon keeps the harness from competing with what it measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	winStart, winCells := start, 0
	for i, rq := range p.timed {
		t0 := nanotime()
		var submitted int64
		line, cells, err := send(d, p.study, rq, &submitted)
		t1 := nanotime()
		if spans != nil {
			root := spans.add(i, 0, "client.request", t0, t1)
			if submitted != 0 {
				spans.add(i, root, "client.submit", t0, submitted)
				spans.add(i, root, "client.stream", submitted, t1)
			}
		}
		if err != nil {
			ph.failed++
			ph.lines = append(ph.lines, nil)
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
			continue
		}
		ph.latMs = append(ph.latMs, float64(t1-t0)/1e6)
		ph.lines = append(ph.lines, line)
		ph.cells += cells
		winCells += cells
		if cfg.inject == "kill" && i == len(p.timed)/2 {
			d.cmd.Process.Kill()
		}
		if (i+1)*nWin/len(p.timed) != i*nWin/len(p.timed) { // window boundary
			now := time.Now()
			ph.winRate = append(ph.winRate, float64(winCells)/now.Sub(winStart).Seconds())
			winStart, winCells = now, 0
		}
	}
	ph.wallS = time.Since(start).Seconds()
	if !d.alive() {
		return ph, fmt.Errorf("physchedd died during the timed phase: %v", d.waitErr)
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return ph, err
	}
	ph.cpuS = cpu1 - cpu0
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %.2fs; cells/s per window %.4g\n", len(p.timed), ph.wallS, ph.winRate)
	if ph.rssMB, err = d.peakRSSMB(); err != nil {
		return ph, err
	}
	return ph, ph.firstErr
}

// measuredRun is an untraced run: set up several times, time the
// sequence on one of the daemons, then check every answer.
//
// Half the set-ups run before the timed phase, the last of them serving
// it, and the rest after it, so that setup_s samples the host at both
// ends of the run rather than in one stretch of it.
func measuredRun(cfg config, p *plan, dir string) (*result, error) {
	attempted := len(p.timed)
	var setups []float64
	setUpOnce := func(k int) (*daemon, [][]byte, error) {
		d, s, primed, err := setUp(cfg, p, filepath.Join(dir, fmt.Sprintf("daemon-%d", k)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		return d, primed, nil
	}
	// A daemon that only measured set-up is stopped and its directories
	// removed, so that every set-up starts from the same disk state.
	discard := func(k int, d *daemon) error {
		err := d.stop()
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("daemon-%d", k)))
		return err
	}
	before := max(cfg.setups/2, 1)
	var d *daemon
	var primed [][]byte
	for k := 0; k < before; k++ {
		dk, pr, err := setUpOnce(k)
		if err == nil && k < before-1 {
			err = discard(k, dk)
		}
		if err != nil {
			return failed(attempted, attempted, err)
		}
		d, primed = dk, pr
	}
	ph, err := runPhase(cfg, d, p, nil)
	if d.alive() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		n := attempted
		if ph != nil {
			n = ph.failed
		}
		return failed(attempted, n, err)
	}
	os.RemoveAll(filepath.Join(dir, fmt.Sprintf("daemon-%d", before-1)))
	for k := before; k < cfg.setups; k++ {
		dk, _, err := setUpOnce(k)
		if err == nil {
			err = discard(k, dk)
		}
		if err != nil {
			return failed(attempted, attempted, err)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.4g s\n", setups)
	// Answers do not depend on the store, so the check replays against
	// memory alone; the traced run keeps the daemon's disk layer for its
	// timings.
	rp, err := newReplayer(2, "", p.study)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	primeP, timedP := rp.p, &probe{}
	if bad, err := verify(rp, p, primed, ph, timedP); err != nil {
		return failed(attempted, bad, err)
	}
	if err := checkCounts(cfg, cfg.seed, len(p.timed), exactCounts(primeP, timedP, rp.count)); err != nil {
		return failed(attempted, 0, err)
	}
	return &result{
		Correct:   true,
		Attempted: attempted,
		Metrics: map[string]metric{
			"cells_per_s":     {ph.cellsPerS(), "1/s"},
			"latency_p50_ms":  {quantile(ph.latMs, 0.50), "ms"},
			"latency_p90_ms":  {quantile(ph.latMs, 0.90), "ms"},
			"cpu_ms_per_cell": {ph.cpuMsPerCell(), "ms"},
			"rss_mb":          {ph.rssMB, "MB"},
			"setup_s":         {quantile(setups, 0.5), "s"},
		},
	}, nil
}

// replayAll replays the priming grids into rp's current probe and the
// timed sequence into timed, and returns the answers each request must
// have been given.
func replayAll(rp *replayer, p *plan, timed *probe) (prime, answers [][]byte, err error) {
	for i, body := range p.prime {
		rp.req = -1 - i
		want, err := rp.grid(body)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying priming grid %d: %w", i, err)
		}
		prime = append(prime, want)
	}
	rp.use(timed)
	start := nanotime()
	for i, body := range p.timed {
		rp.req = i
		var want []byte
		if p.study {
			want, err = rp.study(body)
		} else {
			want, err = rp.grid(body)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		answers = append(answers, want)
	}
	timed.wallNs = nanotime() - start
	return prime, answers, nil
}

// verify replays the sequence (see replayAll) and checks every answer
// the daemon gave byte for byte. It returns the number of wrong answers.
func verify(rp *replayer, p *plan, primed [][]byte, ph *phase, timed *probe) (int, error) {
	prime, wants, err := replayAll(rp, p, timed)
	if err != nil {
		return len(p.timed), err
	}
	var firstErr error
	bad := 0
	wrong := func(err error) {
		bad++
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, want := range prime {
		if !bytes.Equal(primed[i], want) {
			wrong(fmt.Errorf("priming grid %d: answer differs from the in-process replay: %s", i, diff(primed[i], want)))
		}
	}
	for i, want := range wants {
		got := ph.lines[i]
		if !bytes.Equal(got, want) {
			wrong(fmt.Errorf("request %d: answer differs from the in-process replay: %s", i, diff(got, want)))
			continue
		}
		if p.primeIdx != nil {
			// A warm answer is its priming answer with every cell a hit.
			if !bytes.Equal(got, warmOf(primed[p.primeIdx[i]])) {
				wrong(fmt.Errorf("request %d: warm answer differs from its priming answer", i))
			}
		}
	}
	return bad, firstErr
}

// warmOf is the answer a warm resubmission of a primed grid must give:
// the priming answer with every cell served from the cache.
func warmOf(primed []byte) []byte {
	return bytes.Replace(primed, []byte(`"cache_hits":0,`), []byte(fmt.Sprintf(`"cache_hits":%d,`, gridCells)), 1)
}

// diff shows where two answers first differ.
func diff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("at byte %d:\n got  …%s\n want …%s", i, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}
