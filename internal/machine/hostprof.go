// Host-execution profiling on a machine: the machine-level surface over
// the kernel profiler (sim/hostprof.go). A HostProfile is the
// JSON-exportable artifact a run bundle carries as hostprof.json and p3stat
// renders as the host-execution table. It measures the host running the
// simulation — wall-clock, lane skew, heap watermarks — so it is
// nondeterministic by nature and is deliberately excluded from every
// differential digest (TorusResult.Digest, soak Summary).
package machine

import (
	"encoding/json"
	"time"

	"portals3/internal/sim"
)

// HostProfileKind is the JSON "kind" discriminator p3stat sniffs to route
// a file to the host-execution renderer.
const HostProfileKind = "host_profile"

// HostLane is one lane's host-execution accounting in the exported
// artifact (sim.LaneProfile with stable JSON keys).
type HostLane struct {
	Lane             int    `json:"lane"`
	BusyNs           int64  `json:"busy_ns"`
	WaitNs           int64  `json:"wait_ns"`
	Events           uint64 `json:"events"`
	StragglerWindows uint64 `json:"straggler_windows"`
}

// HostProfile is the exported host-execution artifact. Runs is 1 for a
// single run and counts merged arms after Merge (a sweep writes one
// profile covering every load arm).
type HostProfile struct {
	Kind   string `json:"kind"`
	Runs   int    `json:"runs"`
	Shards int    `json:"shards"`

	Windows uint64 `json:"windows"`
	Events  uint64 `json:"events"`

	// WallNs is the kernel-accounted wall-clock (drain + window execution +
	// coordinator tails); RunWallNs is the machine-measured wall of the
	// kernel run calls, the external reference the accounting is checked
	// against. For every lane, busy+wait+drain sums to WallNs within clock
	// granularity.
	WallNs    int64 `json:"wall_ns"`
	RunWallNs int64 `json:"run_wall_ns"`
	ExecNs    int64 `json:"exec_ns"`
	DrainNs   int64 `json:"drain_ns"`

	MeanImbalancePct float64 `json:"mean_imbalance_pct"`
	MaxImbalancePct  float64 `json:"max_imbalance_pct"`

	MemSamples    int    `json:"mem_samples"`
	HeapInuseHigh uint64 `json:"heap_inuse_high"`
	HeapAllocHigh uint64 `json:"heap_alloc_high"`
	SysHigh       uint64 `json:"sys_high"`
	NumGC         uint32 `json:"num_gc"`

	Lanes []HostLane `json:"lanes"`
}

// EnableHostProfile arms the host-execution profiler on the machine's
// kernel.
func (m *Machine) EnableHostProfile() {
	m.kern.EnableHostProfile()
	m.hostprofOn = true
}

// SetProgress registers fn for live host-execution snapshots about every
// `every` of wall-clock (see sim.Kernel.SetProgress for the delivery
// contract). Implies EnableHostProfile.
func (m *Machine) SetProgress(every time.Duration, fn func(sim.HostProgress)) {
	m.kern.SetProgress(every, fn)
	m.hostprofOn = true
}

// HostProfile snapshots the host-execution profile, nil when profiling was
// never enabled. Call it after Run, from the driver goroutine.
func (m *Machine) HostProfile() *HostProfile {
	if !m.hostprofOn {
		return nil
	}
	kp := m.kern.Profile()
	if kp == nil {
		return nil
	}
	hp := &HostProfile{
		Kind:             HostProfileKind,
		Runs:             1,
		Shards:           kp.Shards,
		Windows:          kp.Windows,
		Events:           kp.Events,
		WallNs:           kp.WallNs,
		RunWallNs:        int64(m.runWall),
		ExecNs:           kp.ExecNs,
		DrainNs:          kp.DrainNs,
		MeanImbalancePct: kp.MeanImbalancePct,
		MaxImbalancePct:  kp.MaxImbalancePct,
		MemSamples:       kp.MemSamples,
		HeapInuseHigh:    kp.HeapInuseHigh,
		HeapAllocHigh:    kp.HeapAllocHigh,
		SysHigh:          kp.SysHigh,
		NumGC:            kp.NumGC,
	}
	for _, l := range kp.Lanes {
		hp.Lanes = append(hp.Lanes, HostLane{
			Lane:             l.Lane,
			BusyNs:           l.BusyNs,
			WaitNs:           l.WaitNs,
			Events:           l.Events,
			StragglerWindows: l.StragglerWindows,
		})
	}
	return hp
}

// Merge folds another run's profile into this one — how a sweep's per-arm
// profiles become a single artifact. Times, events, windows and straggler
// counts add; watermarks and max imbalance take the max; the mean
// imbalance averages weighted by window count. Lane lists align by index
// (arms of one sweep share a shard count; a differing count merges the
// common prefix and appends the rest).
func (hp *HostProfile) Merge(o *HostProfile) {
	if o == nil {
		return
	}
	hp.Runs += o.Runs
	if o.Shards > hp.Shards {
		hp.Shards = o.Shards
	}
	if tw := hp.Windows + o.Windows; tw > 0 {
		hp.MeanImbalancePct = (hp.MeanImbalancePct*float64(hp.Windows) +
			o.MeanImbalancePct*float64(o.Windows)) / float64(tw)
	}
	hp.Windows += o.Windows
	hp.Events += o.Events
	hp.WallNs += o.WallNs
	hp.RunWallNs += o.RunWallNs
	hp.ExecNs += o.ExecNs
	hp.DrainNs += o.DrainNs
	if o.MaxImbalancePct > hp.MaxImbalancePct {
		hp.MaxImbalancePct = o.MaxImbalancePct
	}
	hp.MemSamples += o.MemSamples
	if o.HeapInuseHigh > hp.HeapInuseHigh {
		hp.HeapInuseHigh = o.HeapInuseHigh
	}
	if o.HeapAllocHigh > hp.HeapAllocHigh {
		hp.HeapAllocHigh = o.HeapAllocHigh
	}
	if o.SysHigh > hp.SysHigh {
		hp.SysHigh = o.SysHigh
	}
	if o.NumGC > hp.NumGC {
		hp.NumGC = o.NumGC
	}
	for i, l := range o.Lanes {
		if i < len(hp.Lanes) {
			hp.Lanes[i].BusyNs += l.BusyNs
			hp.Lanes[i].WaitNs += l.WaitNs
			hp.Lanes[i].Events += l.Events
			hp.Lanes[i].StragglerWindows += l.StragglerWindows
		} else {
			hp.Lanes = append(hp.Lanes, l)
		}
	}
}

// JSON renders the profile as indented JSON, trailing newline included —
// the on-disk format netpipe/soak write and p3stat reads.
func (hp *HostProfile) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(hp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
