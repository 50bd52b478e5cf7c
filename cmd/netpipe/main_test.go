package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portals3/internal/machine"
)

// runCLI runs the command with args and returns its exit status and
// output streams.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// requireFiles fails unless every named file exists and is non-empty
// under dir.
func requireFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("bundle file %s: %v", name, err)
		} else if st.Size() == 0 {
			t.Errorf("bundle file %s is empty", name)
		}
	}
}

// TestObsSeriesWritesFullBundle: a single curve arms every observer the
// pair supports, the host profiler included.
func TestObsSeriesWritesFullBundle(t *testing.T) {
	dir := t.TempDir()
	code, out, errw := runCLI(t, "-series", "put", "-max", "64", "-obs", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	requireFiles(t, dir, "stats.txt", "telemetry.json", "telemetry.prom",
		"trace.json", "run.p3dump", "hostprof.json", "cpu.pprof", "mem.pprof")
	b, err := os.ReadFile(filepath.Join(dir, "hostprof.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hp machine.HostProfile
	if err := json.Unmarshal(b, &hp); err != nil || hp.Kind != machine.HostProfileKind || hp.Events == 0 {
		t.Errorf("hostprof.json: kind %q events %d err %v", hp.Kind, hp.Events, err)
	}
	if !strings.Contains(out, "latency attribution") {
		t.Errorf("no telemetry breakdown on stdout:\n%s", out)
	}
}

// TestObsTorusWritesTraceAndDump: the torus modes record the trace and
// the flight-recorder dump like every other single run.
func TestObsTorusWritesTraceAndDump(t *testing.T) {
	dir := t.TempDir()
	code, out, errw := runCLI(t, "-torus", "-dim", "3", "-steps", "1", "-obs", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	requireFiles(t, dir, "trace.json", "run.p3dump", "telemetry.json", "stats.txt", "hostprof.json")
}

// TestObsSweepAbsoluteDir: each sweep arm writes its own subdirectory,
// whatever form the bundle path takes.
func TestObsSweepAbsoluteDir(t *testing.T) {
	dir, err := filepath.Abs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCLI(t, "-workload", "sweep", "-dim", "3", "-msgs", "2", "-loads", "0.5", "-obs", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	requireFiles(t, filepath.Join(dir, "load0.50"), "telemetry.json", "trace.json")
	requireFiles(t, dir, "hostprof.json", "cpu.pprof", "mem.pprof")
}

// TestUsageErrorsExit2: every flag the run bundle replaced is gone, and a
// timed-fault schedule is refused on a figure sweep.
func TestUsageErrorsExit2(t *testing.T) {
	for _, flag := range []string{"trace", "stats", "telemetry", "sample", "flightrec",
		"flightrec-events", "dump-on-stall", "dumpout", "hostprof", "progress-every",
		"cpuprofile", "memprofile"} {
		if code, _, _ := runCLI(t, "-series", "put", "-max", "8", "-"+flag, "1"); code != 2 {
			t.Errorf("-%s: exit %d, want 2", flag, code)
		}
	}
	code, _, errw := runCLI(t, "-fig", "4", "-schedule", "stall:0:100us:50us")
	if code != 2 || !strings.Contains(errw, "single run") {
		t.Errorf("-fig with -schedule: exit %d, stderr %q", code, errw)
	}
}
