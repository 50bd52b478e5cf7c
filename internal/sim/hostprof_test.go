package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestKernelHostProfileAccounting pins the profiler's accounting identity:
// the per-lane busy + wait + global drain decomposition must sum back to
// the profiled wall-clock within 5% for every lane, and the global split
// WallNs == DrainNs + ExecNs (+ tails) must hold exactly by construction.
func TestKernelHostProfileAccounting(t *testing.T) {
	trace := shardTraceDriven(t, 8, 4, 8, func(k *Kernel) {
		k.EnableHostProfile()
		k.Run()
	})
	if !strings.Contains(trace, "tok") {
		t.Fatal("empty trace")
	}
	// The kernel in shardTraceDriven is local to the driver; rebuild one
	// here so the profile is inspectable.
	k := NewKernel(4, 100)
	k.EnableHostProfile()
	runTokens(k, 8, 8)
	k.Run()
	p := k.Profile()
	if p == nil {
		t.Fatal("Profile returned nil with profiler enabled")
	}
	if p.Shards != 4 || p.Windows == 0 || p.Windows != k.Windows {
		t.Fatalf("profile shape: shards=%d windows=%d (kernel %d)", p.Shards, p.Windows, k.Windows)
	}
	if p.WallNs <= 0 {
		t.Fatalf("WallNs = %d, want > 0", p.WallNs)
	}
	if got := p.DrainNs + p.ExecNs; got != p.WallNs {
		t.Fatalf("WallNs %d != DrainNs %d + ExecNs %d", p.WallNs, p.DrainNs, p.ExecNs)
	}
	if len(p.Lanes) != 4 {
		t.Fatalf("lanes = %d, want 4", len(p.Lanes))
	}
	var events, stragglers uint64
	for _, l := range p.Lanes {
		sum := l.BusyNs + l.WaitNs + p.DrainNs
		diff := sum - p.WallNs
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(p.WallNs) {
			t.Errorf("lane %d: busy %d + wait %d + drain %d = %d, wall %d (off by %.1f%%)",
				l.Lane, l.BusyNs, l.WaitNs, p.DrainNs, sum, p.WallNs,
				100*float64(diff)/float64(p.WallNs))
		}
		events += l.Events
		stragglers += l.StragglerWindows
	}
	if events != p.Events || events == 0 {
		t.Fatalf("lane events sum %d, profile total %d", events, p.Events)
	}
	var fired uint64
	for i := 0; i < 4; i++ {
		fired += k.Lane(i).Fired
	}
	if events != fired {
		t.Fatalf("profile events %d != lanes fired %d", events, fired)
	}
	if stragglers != p.Windows {
		t.Fatalf("straggler windows sum %d, want one per window (%d)", stragglers, p.Windows)
	}
	if p.MemSamples == 0 || p.HeapInuseHigh == 0 || p.SysHigh == 0 {
		t.Fatalf("memory watermarks never sampled: samples=%d heap=%d sys=%d",
			p.MemSamples, p.HeapInuseHigh, p.SysHigh)
	}
	if p.MaxImbalancePct < p.MeanImbalancePct {
		t.Fatalf("max imbalance %.2f%% < mean %.2f%%", p.MaxImbalancePct, p.MeanImbalancePct)
	}
}

// runTokens schedules the same token-passing model shardTraceDriven uses,
// without the log plumbing — profiler tests need a kernel they can hold.
func runTokens(k *Kernel, nodes, hops int) {
	const L = Time(100)
	shards := k.Shards()
	laneOf := func(n int) int { return n * shards / nodes }
	seqs := make([]uint64, nodes)
	var step func(n, remaining, tok int)
	step = func(n, remaining, tok int) {
		if remaining == 0 {
			return
		}
		now := k.Lane(laneOf(n)).Now()
		for i, dst := range []int{(n + 3) % nodes, (n + 5) % nodes} {
			dst := dst
			at := now + L + Time(tok%3)
			tok2 := tok*2 + i
			seqs[n]++
			k.Post(laneOf(n), laneOf(dst), at, int32(n), seqs[n], func() {
				step(dst, remaining-1, tok2)
			})
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		k.Lane(laneOf(n)).At(Time(10+n%2), func() { step(n, hops, n) })
	}
}

// TestKernelHostProfileProgress: with a zero-ish period every barrier fires
// a progress snapshot, snapshots carry the RunUntil horizon, and the final
// snapshot's cumulative counters agree with the profile.
func TestKernelHostProfileProgress(t *testing.T) {
	k := NewKernel(2, 100)
	runTokens(k, 8, 8)
	var snaps []HostProgress
	k.SetProgress(time.Nanosecond, func(hp HostProgress) { snaps = append(snaps, hp) })
	const horizon = Time(5000)
	k.RunUntil(horizon)
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for _, s := range snaps {
		if s.Horizon != horizon {
			t.Fatalf("snapshot horizon %d, want %d", s.Horizon, horizon)
		}
		if s.SimNow <= 0 || s.WallNs <= 0 {
			t.Fatalf("snapshot missing basics: %+v", s)
		}
	}
	last := snaps[len(snaps)-1]
	p := k.Profile()
	if last.Windows > p.Windows || last.Events > p.Events {
		t.Fatalf("last snapshot (windows %d, events %d) exceeds profile (windows %d, events %d)",
			last.Windows, last.Events, p.Windows, p.Events)
	}
	if last.HeapInuse == 0 {
		t.Fatal("snapshot heap-in-use never sampled")
	}
	// At least one mid-run snapshot should have a live ETA estimate.
	eta := false
	for _, s := range snaps {
		if s.ETANs >= 0 {
			eta = true
		}
	}
	if !eta && len(snaps) > 1 {
		t.Error("no snapshot carried an ETA despite an active horizon")
	}
}

// TestKernelProfileNilWhenDisabled: the profiler is strictly opt-in.
func TestKernelProfileNilWhenDisabled(t *testing.T) {
	k := NewKernel(2, 100)
	runTokens(k, 4, 2)
	k.Run()
	if k.Profile() != nil {
		t.Fatal("Profile() non-nil without EnableHostProfile")
	}
}

// TestKernelInlineFallbackTrace pins the GOMAXPROCS=1 inline path — until
// now only reachable implicitly on single-core hosts — against the parallel
// workers: same model, same per-node event logs, for both Run and stepped
// RunUntil driving, with and without the profiler.
func TestKernelInlineFallbackTrace(t *testing.T) {
	const nodes, hops = 8, 6
	ref := shardTrace(t, nodes, 4, hops)
	if !strings.Contains(ref, "tok") {
		t.Fatal("reference trace empty")
	}
	inline := func(drive func(*Kernel)) string {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		return shardTraceDriven(t, nodes, 4, hops, drive)
	}
	if got := inline(func(k *Kernel) { k.Run() }); got != ref {
		t.Errorf("GOMAXPROCS=1 inline Run diverges from parallel:\nref:\n%s\ngot:\n%s", ref, got)
	}
	if got := inline(func(k *Kernel) {
		k.EnableHostProfile()
		k.Run()
	}); got != ref {
		t.Errorf("GOMAXPROCS=1 inline Run with profiler diverges:\nref:\n%s\ngot:\n%s", ref, got)
	}
	if got := inline(func(k *Kernel) {
		for at := Time(500); k.Now() < 4000; at += 500 {
			k.RunUntil(at)
		}
		k.Run()
	}); got != ref {
		t.Errorf("GOMAXPROCS=1 stepped RunUntil diverges:\nref:\n%s\ngot:\n%s", ref, got)
	}
}

// TestKernelInlineProfileAccounting: the inline fallback keeps the same
// accounting identity — the profiler must not assume fork/join exists.
func TestKernelInlineProfileAccounting(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	k := NewKernel(3, 100)
	k.EnableHostProfile()
	runTokens(k, 9, 6)
	k.Run()
	p := k.Profile()
	if p == nil || p.Windows == 0 {
		t.Fatalf("no profile from inline run: %+v", p)
	}
	for _, l := range p.Lanes {
		sum := l.BusyNs + l.WaitNs + p.DrainNs
		diff := sum - p.WallNs
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(p.WallNs) {
			t.Errorf("inline lane %d: busy+wait+drain = %d, wall %d", l.Lane, sum, p.WallNs)
		}
	}
}

// TestHostProgressString pins the progress line both drivers print: the
// RunUntil target appears only while one is active, and an unknown ETA
// renders as "?".
func TestHostProgressString(t *testing.T) {
	hp := HostProgress{
		SimNow: 1500 * Microsecond, Horizon: 4 * Millisecond,
		WallNs: int64(65 * time.Second), Windows: 7, Events: 300,
		SimRate: 12.5, EventRate: 40, ImbalancePct: 3.25, HeapInuse: 3 << 20,
		ETANs: int64(340 * time.Millisecond),
	}
	want := "t=1500.0us/4000.0us wall=1m05s rate=12.5us/s events=300 (40/s) windows=7 imb=3.2% heap=3.0MB eta=340ms"
	if got := hp.String(); got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	hp.Horizon, hp.ETANs, hp.WallNs = 0, -1, int64(1500*time.Millisecond)
	if got := hp.String(); !strings.Contains(got, "t=1500.0us wall=1.5s") || !strings.HasSuffix(got, "eta=?") {
		t.Errorf("no-horizon line: %q", got)
	}
}
