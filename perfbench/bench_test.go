package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"portals3/internal/experiments"
	"portals3/internal/model"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(fullScale)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		if w.Name != ws[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), ws[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

func TestParseStats(t *testing.T) {
	text := "  node os            irq   coal  hdrs-rx  msgs-tx   events    ppc%   htrd%   htwr%\n" +
		"     0 catamount       5      1        7        9       11   10.0%    1.0%    2.0%\n" +
		"     1 catamount       3      0        4        2        6    5.0%    1.0%    2.0%\n" +
		"fabric: 12 messages, 40 chunks, 2 link retries, 12 delivered\n"
	c, err := parseStats(text)
	if err != nil {
		t.Fatal(err)
	}
	want := counts{headersRx: 11, eventsPosted: 17, interrupts: 8, chunks: 40, linkRetries: 2}
	if c != want {
		t.Errorf("parseStats = %+v, want %+v", c, want)
	}
	if _, err := parseStats("node os\n"); err == nil {
		t.Error("parseStats accepted a table without a fabric line")
	}
}

// TestFigure4MatchesExperiments pins the benchmark's figure driver to the
// experiments package's: same series, same legend order, same output.
func TestFigure4MatchesExperiments(t *testing.T) {
	p := model.Defaults()
	f4 := experiments.Figure4(p)
	var b strings.Builder
	f4.Render(&b)
	experiments.RenderChecks(&b, experiments.LatencyChecks(f4))
	if got, want := runFigures(false).digest, sha256.Sum256([]byte(b.String())); got != want {
		t.Errorf("benchmark Figure 4 digest %x, experiments.Figure4 %x", got, want)
	}
}

// smokeRun is a reduced-size run of both modes of a workload.
func smokeRun(w workload, seed int64) (untraced, traced bench) {
	cfg := runConfig{seconds: 0, minIters: 2, setupSamples: 1, traceSeconds: 0}
	return runUntraced(w, seed, cfg), runTraced(w, seed, cfg)
}

// TestSmoke runs every workload at reduced size: each passes its
// correctness gate and prints every listed metric with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(smokeScale) {
		t.Run(w.name, func(t *testing.T) {
			u, tr := smokeRun(w, 1)
			for _, run := range []struct {
				b    bench
				defs []metricDef
			}{{u, endToEnd}, {tr, perLayer}} {
				r := run.b.report()
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %q", r.Correct, r.Attempted, r.Failed, run.b.failures)
				}
				if len(r.Metrics) != len(run.defs) {
					t.Errorf("%d metrics printed, %d listed", len(r.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					if v, ok := r.Metrics[d.name]; !ok || v.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.name, v, ok, d.unit)
					}
				}
			}
			if u.digest != tr.digest {
				t.Errorf("traced digest %s differs from untraced %s", tr.digest, u.digest)
			}
			for _, name := range []string{"wall_s", "setup_s", "msgs_per_s", "alloc_mb", "sim_us", "ops_ok_frac"} {
				if u.metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, u.metrics[name].Value)
				}
			}
		})
	}
}

// TestHeldOutSeed runs the hot-spot workload at a seed no tuning used: no
// verification errors, one digest across iterations, and a digest that
// differs from seed 1's (the seed reaches the destination streams).
func TestHeldOutSeed(t *testing.T) {
	var hot workload
	for _, w := range workloads(smokeScale) {
		if w.name == "hotspot512" {
			hot = w
		}
	}
	cfg := runConfig{minIters: 3, setupSamples: 1}
	held := runUntraced(hot, 90210, cfg)
	if len(held.failures) != 0 {
		t.Errorf("held-out seed failed: %q", held.failures)
	}
	if base := runUntraced(hot, 1, cfg); base.digest == held.digest {
		t.Error("seeds 1 and 90210 produced the same hot-spot digest")
	}
}

// TestVerifyCountsDigestMismatch: an iteration whose digest differs from
// the first one's, or from the recorded one, is a failed operation.
func TestVerifyCountsDigestMismatch(t *testing.T) {
	a, b := outcome{ops: 10}, outcome{ops: 10}
	b.digest[0] = 1
	run := bench{}
	run.verify(a)
	run.verify(a)
	if len(run.failures) != 0 || run.attempted != 22 {
		t.Fatalf("identical iterations: failures %q, attempted %d", run.failures, run.attempted)
	}
	run.verify(b)
	if len(run.failures) != 1 {
		t.Errorf("differing iteration: failures %q", run.failures)
	}
	recorded := bench{want: "00"}
	recorded.verify(a)
	if len(recorded.failures) != 1 {
		t.Errorf("digest differing from the recorded one: failures %q", recorded.failures)
	}
}
