package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// buildServer compiles dpeserver from the tree under test.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dpeserver")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dpeserver").CombinedOutput()
	if err != nil {
		t.Fatalf("building dpeserver: %v\n%s", err, out)
	}
	return bin
}

func tinyOptions(bin, workDir, name string, seed int64, trace bool) *options {
	return &options{workload: name, seed: seed, seconds: 1, trace: trace,
		serverBin: bin, workDir: workDir, sizes: tinySizes}
}

// assertNoLeftovers fails when a started dpeserver is still alive or a
// data directory is left behind.
func assertNoLeftovers(t *testing.T, workDir string) {
	t.Helper()
	liveServers.Lock()
	live, pids := len(liveServers.m), slices.Clone(liveServers.started)
	liveServers.Unlock()
	if live != 0 {
		t.Errorf("%d servers still registered as live", live)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("dpeserver pid %d still exists (kill 0: %v)", pid, err)
		}
	}
	if _, err := os.Stat(workDir); !errors.Is(err, os.ErrNotExist) {
		entries, _ := os.ReadDir(workDir)
		t.Errorf("work dir %s left behind with %d entries", workDir, len(entries))
	}
}

// TestCountsRepeat runs every workload's traced run twice at a tiny size
// with one seed: the work counters read from the server and from the
// responses must repeat exactly, and nothing may be left running.
func TestCountsRepeat(t *testing.T) {
	bin := buildServer(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			workDir := filepath.Join(t.TempDir(), "work")
			var runs []map[string]float64
			for i := 0; i < 2; i++ {
				rep, err := bench(context.Background(), tinyOptions(bin, workDir, name, 7, true))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d\n%v", i, rep.Correct, rep.Attempted, rep.Failed, rep.lines)
				}
				runs = append(runs, rep.counts)
			}
			t.Logf("counts: %v", runs[0])
			for k, v := range runs[0] {
				if runs[1][k] != v {
					t.Errorf("count %s: %v then %v", k, v, runs[1][k])
				}
			}
			for _, k := range []string{"ops", "response_bytes"} {
				if runs[0][k] == 0 {
					t.Errorf("count %s is 0", k)
				}
			}
			switch name {
			case "matrix-bulk":
				if runs[0]["pairs"] == 0 {
					t.Error("matrix-bulk computed no pairs")
				}
			case "append-mine":
				for _, k := range []string{"journal_recs", "journal_bytes", "mine_pairs", "warm", "candidates"} {
					if runs[0][k] == 0 {
						t.Errorf("append-mine count %s is 0", k)
					}
				}
			case "neighbors-churn":
				for _, k := range []string{"cache_hits", "cache_misses", "evictions", "journal_recs", "candidates"} {
					if runs[0][k] == 0 {
						t.Errorf("neighbors-churn count %s is 0: the tiny cache budget no longer churns", k)
					}
				}
			}
			assertNoLeftovers(t, workDir)
		})
	}
}

// TestUntracedRun covers the end-to-end path, including append-mine's
// SIGKILL-and-replay durability check, and the metric set it prints.
func TestUntracedRun(t *testing.T) {
	bin := buildServer(t)
	workDir := filepath.Join(t.TempDir(), "work")
	rep, err := bench(context.Background(), tinyOptions(bin, workDir, "append-mine", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("append-mine: not correct\n%v", rep.lines)
	}
	for _, name := range []string{"setup_s", "p50_ms", "server_cpu_ms_per_op", "peak_rss_mb"} {
		if v := rep.Metrics[name].Value; !(v > 0) {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	if !slices.ContainsFunc(rep.lines, func(l string) bool { return strings.HasPrefix(l, "durability:") }) {
		t.Error("no durability line in the report")
	}
	assertNoLeftovers(t, workDir)
}

// TestSeedChangesInputs: another seed must give other inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		var logs [][]string
		for _, seed := range []int64{1, 2} {
			w, err := newWorkload(name, seed, tinySizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.encrypt(); err != nil {
				t.Fatal(err)
			}
			switch w := w.(type) {
			case *matrixBulk:
				logs = append(logs, w.encLog)
			case *appendMine:
				logs = append(logs, w.enc[0])
			case *neighborsChurn:
				logs = append(logs, w.enc[0])
			}
		}
		if slices.Equal(logs[0], logs[1]) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", name)
		}
	}
}
