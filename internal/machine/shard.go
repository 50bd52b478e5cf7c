package machine

import (
	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/trace"
)

// This file assembles machines: each node built on its lane's simulator
// against its NodePort, run by the parallel kernel (sim.Kernel) under the
// fabric's conservative lookahead. A machine with shards=1 is the
// bit-identical reference for any shard count (DESIGN.md §11).
//
// Observers — tracing, the RAS sampler, the heartbeat monitor, the stall
// detector — run lane-local: each lane records into its own
// tracer/telemetry instance, liveness checks fire at the kernel's canonical
// barrier ticks (sim.Kernel.Every), and the per-lane artifacts merge
// deterministically at snapshot time (DESIGN.md §12). Timed faults are
// declared up front in Params.Schedule (schedule.go).

// NewSharded builds a machine over the given topology whose nodes are
// partitioned into `shards` parallel event lanes. Nodes are assigned to
// lanes in contiguous blocks of the topology's Z-major id order, a pure
// function of (node, shards, total nodes).
//
// shards clamps to [1, nodes]: more lanes than nodes would leave the
// surplus lanes permanently empty (the block map id*shards/total then
// skips lane indices, and fabric.NewCluster rejects the out-of-range
// assignments), and the simulated results are bit-identical at every
// shard count anyway, so the clamp only removes degenerate partitions.
func NewSharded(p model.Params, tp *topo.Topology, shards int) *Machine {
	if shards < 1 {
		shards = 1
	}
	if n := tp.Nodes(); shards > n {
		shards = n
	}
	kern := sim.NewKernel(shards, fabric.MinHandoffLatency(&p))
	total := int64(tp.Nodes())
	laneOf := func(id topo.NodeID) int { return int(int64(id) * int64(shards) / total) }
	m := &Machine{
		S:      kern.Lane(0),
		P:      p,
		Topo:   tp,
		OSKind: func(topo.NodeID) oskernel.Kind { return oskernel.Catamount },
		nodes:  make(map[topo.NodeID]*Node),
		kern:   kern,
	}
	m.cl = fabric.NewCluster(kern, tp, &m.P, laneOf)
	m.applySchedule()
	return m
}

// ShardKernel returns the parallel kernel, for diagnostics such as the
// window count.
func (m *Machine) ShardKernel() *sim.Kernel { return m.kern }

// laneSim returns the simulator a node's components live on.
func (m *Machine) laneSim(id topo.NodeID) *sim.Sim { return m.kern.Lane(m.cl.Lane(id)) }

// FaultSnapshot returns the machine's fault-ledger counters, summed over
// the per-node planes; ok is false when Params configures no faults.
func (m *Machine) FaultSnapshot() (fabric.FaultStats, bool) { return m.cl.FaultSnapshot() }

// LinkUtilization reports the lifetime utilization of the directed link
// leaving node in direction d (zero if the link was never used), read from
// the fabric of the lane that owns the link.
func (m *Machine) LinkUtilization(node topo.NodeID, d topo.Dir) float64 {
	return m.cl.LaneFabric(m.cl.Lane(node)).LinkUtilization(node, d)
}

// nodeTel returns the telemetry handle of a node's lane (telemetry must be
// enabled).
func (m *Machine) nodeTel(id topo.NodeID) *telemetry.Telemetry { return m.tels[m.cl.Lane(id)] }

// nodeTrace returns the tracer of a node's lane (nil until tracing is
// enabled).
func (m *Machine) nodeTrace(id topo.NodeID) *trace.Tracer {
	if m.trs == nil {
		return nil
	}
	return m.trs[m.cl.Lane(id)]
}
