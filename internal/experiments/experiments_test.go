package experiments

import (
	"runtime"
	"strings"
	"testing"

	"portals3/internal/model"
)

// TestFigure4Calibration is the calibration regression test: the paper's
// headline latencies must reproduce within 5%. It runs the full Figure 4
// (1 B – 1 KB, four series), which is cheap.
func TestFigure4Calibration(t *testing.T) {
	f4 := Figure4(model.Defaults())
	for _, c := range LatencyChecks(f4) {
		if !c.Pass {
			t.Errorf("%s: paper %s, measured %s", c.Name, c.Paper, c.Measured)
		}
	}
}

// TestBandwidthFiguresCalibration validates Figures 5–7 against the
// paper's bandwidth numbers. Skipped with -short: the full 8 MB sweeps of
// twelve curves take a while.
func TestBandwidthFiguresCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8MB sweeps; run without -short")
	}
	p := model.Defaults()
	f5, f6, f7 := Figure5(p), Figure6(p), Figure7(p)
	for _, c := range BandwidthChecks(f5, f6, f7) {
		if !c.Pass {
			t.Errorf("%s: paper %s, measured %s", c.Name, c.Paper, c.Measured)
		}
	}
}

func TestAblationAccelerated(t *testing.T) {
	a := AblationAccelerated(model.Defaults())
	for _, c := range a.Checks() {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

func TestAblationGoBackN(t *testing.T) {
	r := AblationGoBackN(model.Defaults(), 4, 30, 2048)
	for _, c := range GbnChecks(r) {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

// TestPanicArmReleasesMachine: the A2 panic arm stops at a horizon with the
// receiver wedged and processes parked; runIncast closes the machine, so
// repeating the arm leaves no goroutines behind.
func TestPanicArmReleasesMachine(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if r := runIncast(model.Defaults(), 4, 30, 2048, false); !r.Panicked {
			t.Fatalf("run %d: panic arm did not panic the receiver", i)
		}
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after 5 panic-arm runs, started with %d", n, start)
	}
}

func TestAblationLossyIncast(t *testing.T) {
	r := AblationLossyIncast(model.Defaults(), 4, 30, 2048, 0xfa017)
	for _, c := range LossyChecks(r) {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

func TestRenderFigureProducesTable(t *testing.T) {
	f := Figure4(model.Defaults())
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"put", "get", "mpich2", "mpich-1.2.6", "Figure 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
	if len(strings.Split(out, "\n")) < 10 {
		t.Error("suspiciously short table")
	}
}

func TestAblationInline(t *testing.T) {
	a := AblationInline(model.Defaults())
	for _, c := range a.Checks() {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

func TestAblationCoalescing(t *testing.T) {
	a := AblationCoalescing(model.Defaults())
	for _, c := range a.Checks() {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

func TestAblationRxFIFO(t *testing.T) {
	a := AblationRxFIFO(model.Defaults())
	for _, c := range a.Checks() {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}

func TestChunkRobustness(t *testing.T) {
	for _, c := range ChunkRobustness(model.Defaults()) {
		if !c.Pass {
			t.Errorf("%s: %s", c.Name, c.Measured)
		}
	}
}
