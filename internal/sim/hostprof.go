// Host-execution profiler for the sharded kernel: per-lane wall-clock
// accounting of where the *simulator's own* time goes — the host-side
// mirror of the virtual-time observers. Every observer built before this
// one watches the simulated machine; this plane watches the machine
// running the simulation, which is what lane-count and lookahead tuning
// at 10k-node scale needs.
//
// The accounting decomposes each synchronization window's wall-clock into
// three segments, timestamped so consecutive segments share a boundary
// reading (no unattributed gaps):
//
//   - drain: the coordinator's serial work between windows — mailbox
//     drain, the minimum-event scan, barrier ticks, and loop bookkeeping.
//     Every lane is idle during this segment, so it is charged globally.
//   - busy (per lane): the lane's own RunUntil(h) execution, measured by
//     the goroutine that ran it.
//   - wait (per lane): the window's fork-to-join wall minus the lane's
//     busy time — the time the lane sat at the barrier waiting for the
//     window's straggler.
//
// By construction busy(i) + wait(i) + drain == profiled wall for every
// lane i, up to clock-read granularity; TestKernelHostProfileAccounting
// pins the identity to within 5%.
//
// Everything here reads host clocks and host memory statistics only — it
// never feeds back into lane state or event ordering, so enabling the
// profiler cannot perturb the simulated results
// (TestTorusDifferentialHostProfiler pins digests byte-identical with it
// on and off). Its artifacts are wall-clock and therefore nondeterministic:
// they must never enter a differential digest.
package sim

import (
	"fmt"
	"runtime"
	"time"
)

// memSampleStride is how many window barriers pass between ReadMemStats
// watermark samples. ReadMemStats briefly stops the world, and long runs
// execute hundreds of thousands of windows; sampling every stride-th
// barrier (plus every progress report and one final sample at snapshot
// time) keeps the watermarks honest at a negligible cost.
const memSampleStride = 32

// LaneProfile is one lane's share of the host-execution accounting.
type LaneProfile struct {
	Lane   int
	BusyNs int64 // wall-clock spent executing this lane's events
	WaitNs int64 // wall-clock spent at window barriers waiting for stragglers
	Events uint64
	// StragglerWindows counts windows in which this lane had the longest
	// busy time — the window's critical path, the lane everyone else
	// waited for.
	StragglerWindows uint64
}

// KernelProfile is a snapshot of the kernel's host-execution profile.
type KernelProfile struct {
	Shards  int
	Windows uint64
	WallNs  int64 // total profiled wall-clock (drain + window execution)
	ExecNs  int64 // fork-to-join window execution
	DrainNs int64 // coordinator drain/scan/tick segments (all lanes idle)
	Events  uint64

	// Lane load-imbalance per window: skew = (max busy − mean busy) / mean
	// busy, in percent, over windows with nonzero mean busy time.
	MeanImbalancePct float64
	MaxImbalancePct  float64

	// Host memory watermarks, sampled at window barriers.
	MemSamples    int
	HeapInuseHigh uint64
	HeapAllocHigh uint64
	SysHigh       uint64
	NumGC         uint32

	Lanes []LaneProfile
}

// HostProgress is one live progress snapshot, delivered to the function
// registered with SetProgress from the coordinator goroutine at a window
// barrier. The callback must not touch lane state; it exists to print a
// line and return.
type HostProgress struct {
	SimNow  Time // current window horizon (virtual time)
	Horizon Time // RunUntil target when one is active, else 0
	WallNs  int64
	Windows uint64
	Events  uint64

	SimRate      float64 // virtual microseconds per wall second, last interval
	EventRate    float64 // events per wall second, last interval
	ImbalancePct float64 // mean lane imbalance over the last interval
	HeapInuse    uint64

	// ETANs estimates the wall-clock nanoseconds until SimNow reaches
	// Horizon at the last interval's rate; negative when no horizon is
	// active or the rate is zero.
	ETANs int64
}

// String renders the snapshot as one progress line: virtual time (and
// the RunUntil target when one is active), wall-clock, virtual-time and
// event rates, windows, lane imbalance, heap and ETA.
func (hp HostProgress) String() string {
	eta := "?"
	if hp.ETANs >= 0 {
		eta = fmtWall(hp.ETANs)
	}
	target := ""
	if hp.Horizon > 0 && hp.Horizon != Never {
		target = fmt.Sprintf("/%.1fus", float64(hp.Horizon)/1e6)
	}
	return fmt.Sprintf("t=%.1fus%s wall=%s rate=%.1fus/s events=%d (%.0f/s) windows=%d imb=%.1f%% heap=%.1fMB eta=%s",
		float64(hp.SimNow)/1e6, target, fmtWall(hp.WallNs), hp.SimRate,
		hp.Events, hp.EventRate, hp.Windows, hp.ImbalancePct,
		float64(hp.HeapInuse)/(1<<20), eta)
}

// fmtWall renders wall-clock nanoseconds compactly (1m05s, 1.2s, 340ms).
func fmtWall(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

// hostProf is the kernel's live profiler state. All fields are owned by
// the coordinator goroutine; lane busy times cross over through
// Kernel.laneBusy, whose slots are written by each lane's runner during a
// window and read by the coordinator after the join (the join channel
// provides the happens-before edge).
type hostProf struct {
	start   time.Time
	wallNs  int64
	execNs  int64
	drainNs int64
	windows uint64

	lanes     []LaneProfile
	prevFired []uint64

	imbSum     float64
	imbMax     float64
	imbWindows uint64

	memSamples    int
	heapInuseHigh uint64
	heapAllocHigh uint64
	sysHigh       uint64
	numGC         uint32

	// Live progress reporting.
	every      time.Duration
	progressFn func(HostProgress)
	lastReport time.Time
	lastEvents uint64
	lastSim    Time
	intSum     float64 // interval imbalance accumulator
	intWindows uint64
	horizon    Time // active RunUntil target, 0 otherwise
}

// EnableHostProfile arms the host-execution profiler. Call it before Run;
// with it off the kernel takes one nil check per window and measures
// nothing.
func (k *Kernel) EnableHostProfile() {
	if k.prof != nil {
		return
	}
	n := len(k.lanes)
	p := &hostProf{
		start:     time.Now(),
		lanes:     make([]LaneProfile, n),
		prevFired: make([]uint64, n),
	}
	for i := range p.lanes {
		p.lanes[i].Lane = i
	}
	p.lastReport = p.start
	k.prof = p
	if k.laneBusy == nil {
		k.laneBusy = make([]int64, n)
	}
}

// SetProgress registers fn to receive live host-execution snapshots about
// every `every` of wall-clock, checked at window barriers (a window that
// outlasts the period delays the report to its barrier). Implies
// EnableHostProfile. fn runs on the coordinator goroutine between
// windows; it must not schedule events, post mail, or touch lane state.
func (k *Kernel) SetProgress(every time.Duration, fn func(HostProgress)) {
	if every <= 0 {
		every = time.Second
	}
	k.EnableHostProfile()
	k.prof.every = every
	k.prof.progressFn = fn
}

// Profile returns a snapshot of the host-execution profile (nil when the
// profiler was never enabled), taking a final memory watermark sample.
// Call it after Run from the driver goroutine.
func (k *Kernel) Profile() *KernelProfile {
	p := k.prof
	if p == nil {
		return nil
	}
	p.sampleMem()
	kp := &KernelProfile{
		Shards:  len(k.lanes),
		Windows: p.windows,
		WallNs:  p.wallNs,
		ExecNs:  p.execNs,
		DrainNs: p.drainNs,

		MaxImbalancePct: p.imbMax,
		MemSamples:      p.memSamples,
		HeapInuseHigh:   p.heapInuseHigh,
		HeapAllocHigh:   p.heapAllocHigh,
		SysHigh:         p.sysHigh,
		NumGC:           p.numGC,
		Lanes:           append([]LaneProfile(nil), p.lanes...),
	}
	for i := range kp.Lanes {
		kp.Events += kp.Lanes[i].Events
	}
	if p.imbWindows > 0 {
		kp.MeanImbalancePct = p.imbSum / float64(p.imbWindows)
	}
	return kp
}

// window absorbs one executed window: per-lane busy/wait, straggler
// attribution, imbalance skew, event counts, and the strided memory
// sample, then fires a progress report if one is due.
func (p *hostProf) window(k *Kernel, exec time.Duration) {
	p.execNs += int64(exec)
	p.windows++
	var maxBusy int64 = -1
	var sumBusy int64
	straggler := 0
	for i := range k.lanes {
		b := k.laneBusy[i]
		l := &p.lanes[i]
		l.BusyNs += b
		if w := int64(exec) - b; w > 0 {
			l.WaitNs += w
		}
		f := k.lanes[i].Fired
		l.Events += f - p.prevFired[i]
		p.prevFired[i] = f
		sumBusy += b
		if b > maxBusy {
			maxBusy, straggler = b, i
		}
	}
	p.lanes[straggler].StragglerWindows++
	if n := len(k.lanes); n > 1 && sumBusy > 0 {
		mean := float64(sumBusy) / float64(n)
		skew := (float64(maxBusy) - mean) / mean * 100
		p.imbSum += skew
		p.imbWindows++
		p.intSum += skew
		p.intWindows++
		if skew > p.imbMax {
			p.imbMax = skew
		}
	}
	if p.windows%memSampleStride == 0 {
		p.sampleMem()
	}
	if p.progressFn != nil {
		p.maybeProgress(k)
	}
}

// tail charges wall-clock spent outside the window loop — the RunUntil
// clock lift, final tick firing, and Run's deadlock scan — to the drain
// (coordinator bookkeeping) bucket.
func (p *hostProf) tail(d time.Duration) {
	p.wallNs += int64(d)
	p.drainNs += int64(d)
}

// sampleMem takes one ReadMemStats watermark sample.
func (p *hostProf) sampleMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.memSamples++
	if ms.HeapInuse > p.heapInuseHigh {
		p.heapInuseHigh = ms.HeapInuse
	}
	if ms.HeapAlloc > p.heapAllocHigh {
		p.heapAllocHigh = ms.HeapAlloc
	}
	if ms.Sys > p.sysHigh {
		p.sysHigh = ms.Sys
	}
	p.numGC = ms.NumGC
}

// maybeProgress delivers a progress snapshot when the report period has
// elapsed, computing interval rates against the previous report.
func (p *hostProf) maybeProgress(k *Kernel) {
	now := time.Now()
	elapsed := now.Sub(p.lastReport)
	if elapsed < p.every {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.memSamples++
	if ms.HeapInuse > p.heapInuseHigh {
		p.heapInuseHigh = ms.HeapInuse
	}
	if ms.HeapAlloc > p.heapAllocHigh {
		p.heapAllocHigh = ms.HeapAlloc
	}
	if ms.Sys > p.sysHigh {
		p.sysHigh = ms.Sys
	}
	p.numGC = ms.NumGC

	simNow := k.horizon
	var events uint64
	for i := range p.lanes {
		events += p.lanes[i].Events
	}
	secs := elapsed.Seconds()
	hp := HostProgress{
		SimNow:    simNow,
		Horizon:   p.horizon,
		WallNs:    int64(now.Sub(p.start)),
		Windows:   p.windows,
		Events:    events,
		SimRate:   float64(simNow-p.lastSim) / float64(Microsecond) / secs,
		EventRate: float64(events-p.lastEvents) / secs,
		HeapInuse: ms.HeapInuse,
		ETANs:     -1,
	}
	if p.intWindows > 0 {
		hp.ImbalancePct = p.intSum / float64(p.intWindows)
	}
	if p.horizon > simNow && p.horizon != Never && simNow > p.lastSim {
		wallPerPs := float64(elapsed.Nanoseconds()) / float64(simNow-p.lastSim)
		hp.ETANs = int64(float64(p.horizon-simNow) * wallPerPs)
	}
	p.lastReport = now
	p.lastEvents = events
	p.lastSim = simNow
	p.intSum, p.intWindows = 0, 0
	p.progressFn(hp)
}
