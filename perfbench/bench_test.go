package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDaemon compiles physchedd from this checkout into a temporary
// directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "physchedd")
	cmd := exec.Command("go", "build", "-o", bin, "physched/cmd/physchedd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building physchedd: %v", err)
	}
	return bin
}

func tinyConfig(t *testing.T, daemon, workload string) config {
	return config{
		workload: workload, seed: 7, seconds: 1,
		daemon: daemon, work: t.TempDir(), setups: 2, tiny: true,
	}
}

// TestTinyRuns runs every workload at the self-test size, untraced and
// traced, and expects correct results with every metric present. The
// second untraced run of the same seed re-checks the recorded exact
// counts.
func TestTinyRuns(t *testing.T) {
	daemon := buildDaemon(t)
	for _, w := range []string{"cold-grid", "warm-grid", "study"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, daemon, w)
			for i := 0; i < 2; i++ {
				res, err := run(cfg)
				if err != nil || !res.Correct || res.Failed != 0 {
					t.Fatalf("untraced run %d: %+v, %v", i, res, err)
				}
				for _, name := range []string{"cells_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_cell", "rss_mb", "setup_s"} {
					// A tiny run can finish inside one 10 ms CPU tick.
					if m, ok := res.Metrics[name]; !ok || m.Value < 0 || m.Value == 0 && name != "cpu_ms_per_cell" {
						t.Errorf("metric %s = %+v, want a positive value", name, m)
					}
				}
			}
			cfg.trace = true
			res, err := run(cfg)
			if err != nil || !res.Correct {
				t.Fatalf("traced run: %+v, %v", res, err)
			}
			if len(res.Metrics) != 29 {
				t.Errorf("traced run printed %d metrics, want 29", len(res.Metrics))
			}
		})
	}
}

// TestBrokenRunsFail pins that the harness cannot report numbers when
// an answer is corrupted in flight or the daemon dies mid-run.
func TestBrokenRunsFail(t *testing.T) {
	daemon := buildDaemon(t)
	for _, w := range []string{"cold-grid", "warm-grid", "study"} {
		for _, inject := range []string{"corrupt", "kill"} {
			t.Run(w+"/"+inject, func(t *testing.T) {
				cfg := tinyConfig(t, daemon, w)
				cfg.inject = inject
				res, err := run(cfg)
				if err == nil || res == nil || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
					t.Fatalf("run with %s injected: %+v, %v; want a failed run without metrics", inject, res, err)
				}
			})
		}
	}
}

// TestMissingLayerFails pins the layer checks of the traced run: a
// replay that leaves one layer's wrapper out must fail, both where the
// layer's time then falls outside every span (the result store, around
// which lab.run is timed; opt) and where it falls inside another layer's
// span (sched inside lab.run).
func TestMissingLayerFails(t *testing.T) {
	daemon := buildDaemon(t)
	for _, c := range []struct{ workload, untimed, want string }{
		{"cold-grid", "resultcache", "cover"},
		{"study", "opt", "cover"},
		{"cold-grid", "sched", "[sched]"},
		{"study", "workload", "[workload]"},
	} {
		t.Run(c.workload+"/"+c.untimed, func(t *testing.T) {
			cfg := tinyConfig(t, daemon, c.workload)
			cfg.trace, cfg.untimed = true, c.untimed
			res, err := run(cfg)
			if err == nil || res == nil || res.Correct || len(res.Metrics) != 0 {
				t.Fatalf("traced run without %s timing: %+v, %v; want a failed run without metrics", c.untimed, res, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestChangedCountsFail pins the determinism check: a recorded exact
// count that a later run of the same seed does not reproduce fails it.
func TestChangedCountsFail(t *testing.T) {
	cfg := config{workload: "cold-grid", work: t.TempDir()}
	cfg.daemon = filepath.Join(cfg.work, "physchedd")
	if err := os.WriteFile(cfg.daemon, []byte("build"), 0o755); err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{"sim.events_per_cell": 10}
	if err := checkCounts(cfg, 1, 6, counts); err != nil {
		t.Fatal(err)
	}
	if err := checkCounts(cfg, 1, 6, counts); err != nil {
		t.Fatalf("same counts rejected: %v", err)
	}
	counts["sim.events_per_cell"] = 11
	if err := checkCounts(cfg, 1, 6, counts); err == nil {
		t.Fatal("changed counts accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
