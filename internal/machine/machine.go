// Package machine assembles complete simulated XT3 systems: nodes (Opteron
// host + OS kernel + SeaStar + firmware + generic driver) wired into the
// 3D interconnect, and application processes running against the Portals
// API through the appropriate bridge.
//
// Nodes are built lazily, so a Red Storm-sized topology (10,368 nodes) can
// be declared while only the nodes a test touches are instantiated.
//
// Every machine runs on the parallel event kernel (sim.Kernel) over the
// hop-by-hop fabric: NewSharded partitions the nodes into event lanes, and
// the simulated results are bit-identical at every lane count (DESIGN.md
// §11).
package machine

import (
	"fmt"
	"sync"
	"time"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/fw"
	"portals3/internal/model"
	"portals3/internal/nal"
	"portals3/internal/oskernel"
	"portals3/internal/seastar"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/trace"
)

// Mode selects how a process reaches Portals (paper §3.1's four system
// configurations).
type Mode int

// Process modes.
const (
	// Generic forwards every Portals call to the OS kernel; matching runs
	// on the host, driven by interrupts.
	Generic Mode = iota
	// Accelerated posts commands directly to a dedicated firmware mailbox;
	// matching runs on the NIC and the data path is interrupt-free.
	// Catamount only (§3.3: accelerated mode does not support paged
	// buffers).
	Accelerated
	// KernelService is a kernel-resident client (the Lustre case) reaching
	// the library through kbridge: no trap cost, still generic mode.
	KernelService
)

func (m Mode) String() string {
	return [...]string{"generic", "accelerated", "kernel-service"}[m]
}

// Machine is one simulated system.
type Machine struct {
	// S is lane 0's simulator; every lane's clock reads the same window
	// horizon between kernel runs, so S.Now() is the machine's time.
	S    *sim.Sim
	P    model.Params
	Topo *topo.Topology

	// OSKind selects each node's operating system; the default is
	// Catamount everywhere (a compute partition).
	OSKind func(topo.NodeID) oskernel.Kind

	nodes    map[topo.NodeID]*Node
	gbn      bool
	sampler  *Sampler
	ras      *RAS
	failures []NodeFailure

	// The parallel kernel, the per-lane fabric cluster, per-lane telemetry
	// and trace instances (nil until enabled), and the mutex serializing the
	// failure funnel across lanes.
	kern *sim.Kernel
	cl   *fabric.Cluster
	tels []*telemetry.Telemetry
	trs  []*trace.Tracer
	mu   sync.Mutex

	// Host-execution profiling (hostprof.go): whether the kernel profiler
	// is armed, and the measured wall-clock of the kernel run calls — the
	// external reference the profiler's accounting is validated against.
	hostprofOn bool
	runWall    time.Duration

	rec            *flightrec.Recorder
	stall          *StallDetector
	reports        []FailureReport
	ledgerReported bool
}

// Node is one XT3 node.
type Node struct {
	ID      topo.NodeID
	Kernel  *oskernel.Kernel
	Chip    *seastar.Chip
	NIC     *fw.NIC
	Generic *nal.GenericDriver
}

// NewPair is the two-node micro-benchmark machine (the NetPIPE setup):
// two adjacent Catamount nodes on one event lane.
func NewPair(p model.Params) *Machine {
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		panic(err)
	}
	return NewSharded(p, tp, 1)
}

// Node returns (building on first use) the node with the given id.
func (m *Machine) Node(id topo.NodeID) *Node {
	if n, ok := m.nodes[id]; ok {
		return n
	}
	if !m.Topo.Valid(id) {
		panic(fmt.Sprintf("machine: invalid node %d", id))
	}
	ls := m.laneSim(id)
	kern := oskernel.New(ls, &m.P, m.OSKind(id), id)
	chip := seastar.New(ls, &m.P, id)
	nic, err := fw.New(ls, &m.P, chip, m.cl.Port(id), id)
	if err != nil {
		panic(err)
	}
	if m.gbn {
		nic.Policy = fw.ExhaustGoBackN
	}
	nic.Trace = m.nodeTrace(id)
	kern.Trace = nic.Trace
	drv, err := nal.NewGeneric(kern, nic, m.Topo, &m.P)
	if err != nil {
		panic(err)
	}
	n := &Node{ID: id, Kernel: kern, Chip: chip, NIC: nic, Generic: drv}
	if m.tels != nil {
		m.wireTelemetry(n)
	}
	if m.rec != nil {
		m.wireFlightRec(n)
	}
	m.installFailureHandler(n)
	m.nodes[id] = n
	return n
}

// EnableTracing starts recording a machine-wide timeline (wire, firmware,
// interrupt and Portals-event activity). Call it before spawning
// processes.
//
// Each lane records into its own tracer (every node lives on exactly one
// lane, so a node's records stay in one instance and in lane-local time
// order); it returns lane 0's. Read the merged timeline through
// Machine.Trace after the run and write it with Tracer.WriteChrome. The
// merge sorts by (timestamp, node), which preserves each lane's relative
// order, so the written trace is byte-identical at every shard count.
func (m *Machine) EnableTracing() *trace.Tracer {
	if m.trs == nil {
		m.trs = make([]*trace.Tracer, m.kern.Shards())
		for i := range m.trs {
			m.trs[i] = trace.New()
			m.cl.SetTrace(i, m.trs[i])
		}
		for _, n := range m.nodes {
			n.NIC.Trace = m.nodeTrace(n.ID)
			n.Kernel.Trace = n.NIC.Trace
		}
	}
	return m.trs[0]
}

// Trace merges the per-lane tracers into a fresh one (nil unless tracing
// is enabled). Call it after Run, from the driver goroutine.
func (m *Machine) Trace() *trace.Tracer {
	if m.trs == nil {
		return nil
	}
	return trace.Merged(m.trs...)
}

// EnableTelemetry attaches telemetry to the machine — existing and
// subsequently built nodes: per-message latency attribution through the
// generic driver, per-node interrupt dispatch histograms, and the registry
// the RAS sampler and exporters use. Like tracing, enable it before
// spawning processes; a machine without it pays one pointer test per site
// and allocates nothing. Each lane records into its own instance; it
// returns lane 0's, and Machine.Telemetry merges them after the run.
func (m *Machine) EnableTelemetry() *telemetry.Telemetry {
	if m.tels == nil {
		m.tels = make([]*telemetry.Telemetry, m.kern.Shards())
		for i := range m.tels {
			m.tels[i] = telemetry.New()
			m.cl.SetTelemetry(i, m.tels[i])
		}
		for _, n := range m.nodes {
			m.wireTelemetry(n)
		}
	}
	return m.tels[0]
}

// Telemetry merges the per-lane telemetry instances into a fresh one (nil
// unless enabled). Call it after Run, from the driver goroutine.
func (m *Machine) Telemetry() *telemetry.Telemetry {
	if m.tels == nil {
		return nil
	}
	return telemetry.Merged(m.tels...)
}

// wireTelemetry points one node's components at its telemetry handle.
func (m *Machine) wireTelemetry(n *Node) {
	tel := m.nodeTel(n.ID)
	n.Generic.Tel = tel
	n.Kernel.IrqHist = tel.Reg.Histogram("host_irq_dispatch_ps", telemetry.NodeLabel(int(n.ID)))
}

// EnableGoBackN switches every node — existing and subsequently built — to
// the go-back-n exhaustion recovery protocol.
func (m *Machine) EnableGoBackN() {
	m.gbn = true
	for _, n := range m.nodes {
		n.NIC.Policy = fw.ExhaustGoBackN
	}
}

// App is one running application process.
type App struct {
	M    *Machine
	Node *Node
	Pid  uint32
	Mode Mode
	// API is the process's Portals interface; valid once main runs.
	API *nal.API
	// Proc is the application coroutine.
	Proc *sim.Proc
}

// Alloc obtains application memory from the node's OS: contiguous on
// Catamount, paged on Linux.
func (a *App) Alloc(n int) core.Region { return a.Node.Kernel.NewRegion(n) }

// ID returns the process's Portals id without an API crossing.
func (a *App) ID() core.ProcessID {
	return core.ProcessID{Nid: uint32(a.Node.ID), Pid: a.Pid}
}

// Spawn starts an application process on a node in the given mode; main
// runs as a simulator coroutine with a ready Portals API. Spawn returns the
// App immediately (the process starts at the current virtual time).
func (m *Machine) Spawn(node topo.NodeID, name string, mode Mode, main func(app *App)) (*App, error) {
	n := m.Node(node)
	pid := n.Kernel.AllocPid()
	uid := 1000 + pid
	app := &App{M: m, Node: n, Pid: pid, Mode: mode}

	var lib *core.Lib
	var bridge nal.Bridge
	switch mode {
	case Generic:
		lib = n.Generic.AttachProcess(pid, uid, core.Limits{})
		if n.Kernel.Kind == oskernel.Catamount {
			bridge = nal.QKBridge{K: n.Kernel}
		} else {
			bridge = nal.UKBridge{K: n.Kernel}
		}
	case KernelService:
		lib = n.Generic.AttachProcess(pid, uid, core.Limits{})
		bridge = nal.KBridge{}
	case Accelerated:
		if n.Kernel.Kind != oskernel.Catamount {
			return nil, fmt.Errorf("machine: accelerated mode requires Catamount (paper §3.3); node %d runs %v", node, n.Kernel.Kind)
		}
		drv, err := nal.NewAccel(n.NIC, m.Topo, &m.P, pid, uid, core.Limits{}, accelPendings)
		if err != nil {
			return nil, err
		}
		lib = drv.Lib()
		bridge = nal.AccelBridge{}
	default:
		return nil, fmt.Errorf("machine: unknown mode %d", mode)
	}

	lib.Trace = m.nodeTrace(n.ID)
	n.NIC.S.Go(name, func(p *sim.Proc) {
		app.Proc = p
		app.API = nal.NewAPI(p, lib, bridge, &m.P)
		main(app)
	})
	return app, nil
}

// accelPendings sizes an accelerated process's pending pool; small, per the
// paper's limited-NIC-resources constraint.
const accelPendings = 256

// Run executes the simulation to completion, takes the sampler's
// documented final sample at quiesce time (the sampler self-terminates
// with the event heap, so the quiesce point itself has no tick of its
// own), then audits the fault plane's ledger: at quiescence every injected
// fault must be recovered or condemned, and an imbalance files a
// FailureLedger report (with a dump when the flight recorder is on)
// instead of panicking.
func (m *Machine) Run() {
	if m.hostprofOn {
		t0 := time.Now()
		m.kern.Run()
		m.runWall += time.Since(t0)
	} else {
		m.kern.Run()
	}
	if m.sampler != nil && !m.sampler.halted {
		// Every lane's clock reads the final horizon here, which is
		// shard-invariant, so the closing sample lands at the same
		// timestamp at every shard count. The
		// closing sample flushes link meters instead of sampling them, so
		// the final utilization window ends when each link went idle rather
		// than being diluted across the drain to quiescence.
		m.sampler.closing = true
		m.sampler.sampleAt(m.S.Now())
	}
	m.flushMeters()
	m.checkLedger()
}

// flushMeters closes every link meter's final utilization window at
// quiesce time — covering machines that enabled telemetry without ever
// starting the sampler (whose meters would otherwise never be exported)
// and meters the closing sample already flushed (Flush is idempotent).
func (m *Machine) flushMeters() {
	now := m.S.Now()
	for i, tel := range m.tels {
		for _, mt := range m.cl.LaneFabric(i).Meters() {
			mt.Flush(tel, now)
		}
	}
}

// RunUntil executes the simulation up to a virtual-time horizon, then
// advances the clock to (at least) t — the idiom RAS monitors and staged
// scenario drivers use between final Run calls. The horizon rounds up to
// the kernel's next window barrier, so events within lookahead−1 past t
// may run with their window; the rounding depends only on the workload's
// event times, never on the partition, so a RunUntil-driven run remains
// bit-identical at every shard count (sim.Kernel.RunUntil documents the
// argument).
func (m *Machine) RunUntil(t sim.Time) {
	if m.hostprofOn {
		t0 := time.Now()
		m.kern.RunUntil(t)
		m.runWall += time.Since(t0)
	} else {
		m.kern.RunUntil(t)
	}
}

// Close unwinds every process still parked (sim.Kernel.Close), releasing a
// machine abandoned at a RunUntil horizon. It must not run again.
func (m *Machine) Close() { m.kern.Close() }
