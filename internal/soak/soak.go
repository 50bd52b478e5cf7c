// Package soak is the chaos soak campaign driver: seeded virtual-time
// fault campaigns — scheduled link flaps, node stalls, correlated burst
// loss and rolling firmware restarts — run over the repository's standard
// workloads (torus halo exchange, lossy incast, go-back-n stream), on the
// sequential reference kernel and the sharded parallel kernel alike.
//
// A campaign is reproducible by construction: the seed derives the fault
// schedule (model.GenSchedule), the schedule applies deterministically at
// any shard count (machine/schedule.go), and a Result's Summary excludes
// everything that may legitimately vary between arms — so the same seed
// must produce byte-identical summaries at shards=1 and shards=N, and any
// divergence is itself a failure.
//
// At quiescence every campaign asserts the soak invariants:
//
//   - the fault ledger balances: injected == recovered + condemned;
//   - zero failure reports — no stalls, panics or ledger imbalances;
//   - the workload's own delivery checks (sequence, integrity, counts).
//
// When a campaign fails, Bisect (bisect.go) minimizes the schedule to a
// smallest still-failing reproduction and renders a ready-to-paste repro
// command. DESIGN.md §13 describes the architecture.
package soak

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"portals3/internal/core"
	"portals3/internal/experiments"
	"portals3/internal/fabric"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// Workload names.
const (
	// TorusHalo is the machine-scale halo exchange on a 3x3x3 torus.
	TorusHalo = "torus-halo"
	// TorusCollective is the MPI allreduce/broadcast-tree workload on a
	// 3x3x3 torus — one rank per node, binomial trees over the routed
	// fabric.
	TorusCollective = "torus-collective"
	// RandTraffic is the uniform-random point-to-point generator on a
	// 3x3x3 torus.
	RandTraffic = "rand-traffic"
	// HotSpot is the hot-spot point-to-point generator on a 3x3x3 torus:
	// a fraction of every sender's messages converge on one victim node.
	HotSpot = "hot-spot"
	// LossyIncast is three senders converging on one receiver over a
	// 4-node line, under a small receive pool.
	LossyIncast = "lossy-incast"
	// GbnStream is an ordered pipelined stream across a 4-node line.
	GbnStream = "gbn-stream"
)

// Workloads lists every workload name, in campaign order.
var Workloads = []string{TorusHalo, TorusCollective, RandTraffic, HotSpot, LossyIncast, GbnStream}

// soakPtl/soakMatch are the portal index and match bits the line workloads
// attach on, as in the machine tests.
const (
	soakPtl   = 4
	soakMatch = 7
)

// Campaign describes one soak run.
type Campaign struct {
	Workload string
	Seed     int64
	Entries  int // generated schedule length; 0 means 4
	Shards   int // event lanes; 0 means 1

	// Schedule, when non-empty, overrides seed generation — the bisector
	// and explicit repro runs set it.
	Schedule model.FaultSchedule

	// FlightRec enables the per-node flight recorder so a failing run
	// carries p3dump-renderable artifacts.
	FlightRec bool

	// Progress, when set, receives live host-execution snapshots during
	// the run (about one per second of wall-clock) — cmd/soak's -progress.
	Progress func(sim.HostProgress)
}

// Result is one campaign's outcome.
type Result struct {
	Workload string
	Seed     int64
	Shards   int
	Schedule model.FaultSchedule

	FinishPs int64 // virtual completion time
	Msgs     int   // workload messages delivered (halo faces for torus)
	Ledger   fabric.FaultStats

	// Errors lists every violated invariant; empty on a passing run.
	Errors []string

	// Bundle holds the run's artifacts: the counter table and host
	// profile always, and with FlightRec on the end-of-run dump plus one
	// per failure report that carried a detection dump.
	experiments.Bundle

	// Host-execution measurements. Wall-clock, heap and the host profile
	// are host-side and nondeterministic, so Summary deliberately never
	// reads them — they feed the trend JSON (soak-time regression
	// tracking), not the shard-invariance comparison.
	WallNs        int64
	PeakHeapBytes uint64
}

// Failed reports whether any soak invariant was violated.
func (r *Result) Failed() bool { return len(r.Errors) > 0 }

// Summary renders the shard-invariant outcome: everything the campaign
// asserts, nothing that may differ between arms (no shard count, no
// wall-clock). Same seed, same workload => byte-identical summaries at
// every shard count.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s seed=%d\n", r.Workload, r.Seed)
	fmt.Fprintf(&b, "schedule=%s\n", r.Schedule)
	fmt.Fprintf(&b, "finish_ps=%d msgs=%d\n", r.FinishPs, r.Msgs)
	fmt.Fprintf(&b, "ledger=%v\n", r.Ledger)
	if len(r.Errors) == 0 {
		b.WriteString("status=PASS\n")
		return b.String()
	}
	fmt.Fprintf(&b, "status=FAIL errors=%d\n", len(r.Errors))
	for _, e := range r.Errors {
		b.WriteString("  " + e + "\n")
	}
	return b.String()
}

// Topology returns the workload's fixed topology — the validation target
// for schedules and the node-id space for generated ones.
func Topology(workload string) (*topo.Topology, error) {
	switch workload {
	case TorusHalo, TorusCollective, RandTraffic, HotSpot:
		return topo.XT3Torus(3, 3, 3)
	case LossyIncast, GbnStream:
		return topo.New(4, 1, 1, false, false, false)
	default:
		return nil, fmt.Errorf("soak: unknown workload %q (want %s)", workload, strings.Join(Workloads, ", "))
	}
}

// span is the virtual-time window generated schedules target. The line
// workloads stream until the schedule's last window closes, so any span
// overlaps traffic; the torus workloads run fixed iteration counts, so
// each span must sit inside that workload's natural finish time.
func span(workload string) sim.Time {
	switch workload {
	case TorusHalo:
		return 400 * sim.Microsecond
	case TorusCollective:
		// Ranks hold at the mpi.DefaultStart barrier (500us) before any
		// traffic flows, so the span must reach well past it.
		return 1000 * sim.Microsecond
	case RandTraffic, HotSpot:
		return 150 * sim.Microsecond
	default:
		return 700 * sim.Microsecond
	}
}

// Resolve returns the campaign's effective schedule: the explicit one
// validated, or the seed-generated one.
func Resolve(c Campaign) (model.FaultSchedule, error) {
	tp, err := Topology(c.Workload)
	if err != nil {
		return nil, err
	}
	if len(c.Schedule) > 0 {
		if err := c.Schedule.Validate(tp); err != nil {
			return nil, fmt.Errorf("soak: %v", err)
		}
		return c.Schedule, nil
	}
	n := c.Entries
	if n <= 0 {
		n = 4
	}
	return model.GenSchedule(c.Seed, tp, n, span(c.Workload)), nil
}

// Run executes one campaign and audits the soak invariants. Every
// campaign runs with the host-execution profiler armed, so the result
// carries wall-clock, peak heap, and the lane profile alongside the
// deterministic outcome.
func Run(c Campaign) Result {
	start := time.Now()
	if c.Shards <= 0 {
		c.Shards = 1
	}
	res := Result{Workload: c.Workload, Seed: c.Seed, Shards: c.Shards}
	sched, err := Resolve(c)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		res.WallNs = int64(time.Since(start))
		return res
	}
	res.Schedule = sched
	switch c.Workload {
	case TorusHalo:
		runTorus(c, sched, &res)
	case TorusCollective:
		runCollective(c, sched, &res)
	case RandTraffic:
		runTraffic(c, sched, &res, false)
	case HotSpot:
		runTraffic(c, sched, &res, true)
	case LossyIncast:
		runLine(c, sched, &res, true)
	case GbnStream:
		runLine(c, sched, &res, false)
	}
	res.WallNs = int64(time.Since(start))
	if res.HostProfile != nil {
		res.PeakHeapBytes = res.HostProfile.HeapInuseHigh
	}
	return res
}

// audit applies the machine-level soak invariants to a finished run.
func audit(m *machine.Machine, res *Result) {
	res.FinishPs = int64(m.S.Now())
	if st, ok := m.FaultSnapshot(); ok {
		res.Ledger = st
		if st.Open() != 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("ledger imbalance: %d fault(s) neither recovered nor condemned", st.Open()))
		}
	}
	for _, r := range m.Reports() {
		res.Errors = append(res.Errors, "failure report: "+r.String())
	}
	res.Bundle = experiments.Collect(m)
}

// runTorus drives the halo-exchange workload through the experiments
// package, which carries its own delivery verification.
func runTorus(c Campaign, sched model.FaultSchedule, res *Result) {
	cfg := experiments.TorusConfig{
		Dim: 3, Bytes: 512, Steps: 4, Radius: 1,
		Shards:      c.Shards,
		GoBackN:     true,
		Schedule:    sched,
		FlightRec:   c.FlightRec,
		StallWindow: sched.StallWindow(),
		HostProf:    true,
		Progress:    c.Progress,
	}
	r := experiments.TorusHalo(cfg)
	absorb(res, &r, r.Nodes*6*cfg.Steps)
}

// absorb copies an experiments-run outcome into the campaign result and
// applies the ledger invariant — the shared tail of every torus workload,
// which runs its own machine inside the experiments package.
func absorb(res *Result, r *experiments.TorusResult, msgs int) {
	res.FinishPs = r.FinishPs
	res.Msgs = msgs
	res.Ledger = r.FaultStats
	if r.FaultStats.Open() != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("ledger imbalance: %d fault(s) neither recovered nor condemned", r.FaultStats.Open()))
	}
	res.Errors = append(res.Errors, r.Errors...)
	res.Bundle = r.Bundle
}

// runCollective drives the MPI allreduce/broadcast-tree workload: every
// campaign exercises the full MPI stack (sinks, eager protocol, binomial
// trees) under the scheduled faults, with go-back-n carrying recovery.
func runCollective(c Campaign, sched model.FaultSchedule, res *Result) {
	cfg := experiments.TorusConfig{
		Dim: 3, Bytes: 128, Steps: 3,
		Shards:      c.Shards,
		GoBackN:     true,
		Schedule:    sched,
		FlightRec:   c.FlightRec,
		StallWindow: sched.StallWindow(),
		HostProf:    true,
		Progress:    c.Progress,
	}
	r := experiments.TorusCollective(cfg)
	absorb(res, &r, experiments.CollectiveMsgs(r.Nodes, cfg.Steps))
}

// runTraffic drives one traffic generator — uniform-random or the 30%
// hot-spot aimed at the torus center — throttled to a quarter of line rate
// so the injection window stays open across the schedule's fault windows.
func runTraffic(c Campaign, sched model.FaultSchedule, res *Result, hot bool) {
	cfg := experiments.TrafficConfig{
		TorusConfig: experiments.TorusConfig{
			Dim: 3, Bytes: 512,
			Shards:      c.Shards,
			GoBackN:     true,
			Schedule:    sched,
			FlightRec:   c.FlightRec,
			StallWindow: sched.StallWindow(),
			HostProf:    true,
			Progress:    c.Progress,
		},
		Msgs: 24,
		Load: 0.25,
		Seed: uint64(c.Seed)*0x9E3779B9 + 0xd1ce,
	}
	if hot {
		cfg.HotFrac = 0.3
		cfg.HotNode = 13 // center of the 3x3x3 torus
	}
	r := experiments.TorusTraffic(cfg)
	absorb(res, &r, experiments.TrafficMsgs(cfg))
}

// runLine drives the two line workloads: incast (senders 1..3 converge on
// node 0) or an ordered stream (node 0 to node 3). Senders stream
// fixed-fill 1 KiB messages until every scheduled fault window has closed,
// then send a 1-byte sentinel; the receiver verifies per-sender sequence
// numbers from the put header data and message integrity from the fill.
func runLine(c Campaign, sched model.FaultSchedule, res *Result, incast bool) {
	p := model.Defaults()
	p.NumGenericPendings = 32
	p.Schedule = sched
	tp, err := Topology(c.Workload)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		return
	}
	m := machine.NewSharded(p, tp, c.Shards)
	m.EnableGoBackN()
	m.EnableHostProfile()
	if c.Progress != nil {
		m.SetProgress(0, c.Progress)
	}
	if c.FlightRec {
		m.EnableFlightRecorder(0)
	}

	const B = 1024
	// Senders stream until the last fault window has closed (plus margin),
	// so the schedule always overlaps live traffic.
	until := sched.End() + 100*sim.Microsecond
	if until < 300*sim.Microsecond {
		until = 300 * sim.Microsecond
	}

	var rxNode topo.NodeID
	var senders []topo.NodeID
	if incast {
		rxNode, senders = 0, []topo.NodeID{1, 2, 3}
	} else {
		rxNode, senders = 3, []topo.NodeID{0}
	}

	type flow struct {
		sent int
		next uint64 // next expected sequence at the receiver
	}
	flows := make(map[uint32]*flow)
	for _, s := range senders {
		flows[uint32(s)] = &flow{}
	}
	var mu []string // verification errors, collected in event order
	received := 0

	var rx *machine.App
	rx, _ = m.Spawn(rxNode, "soak-rx", machine.Generic, func(app *machine.App) {
		eq, err := app.API.EQAlloc(8192)
		if err != nil {
			panic(err)
		}
		me, err := app.API.MEAttach(soakPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
			soakMatch, 0, core.Retain, core.After)
		if err != nil {
			panic(err)
		}
		buf := app.Alloc(len(senders) * B)
		if _, err := app.API.MDAttach(me, core.MDesc{
			Region: buf, Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
			EQ:      eq,
		}, core.Retain); err != nil {
			panic(err)
		}
		sentinels := 0
		for sentinels < len(senders) {
			ev, err := app.API.EQWait(eq)
			if err != nil && err != core.ErrEQDropped {
				panic(err)
			}
			if ev.Type != core.EventPutEnd {
				continue
			}
			if ev.NIFail {
				mu = append(mu, fmt.Sprintf("rx: NIFail from nid %d seq %d", ev.Initiator.Nid, ev.HdrData))
				continue
			}
			fl := flows[ev.Initiator.Nid]
			if fl == nil {
				mu = append(mu, fmt.Sprintf("rx: message from unexpected nid %d", ev.Initiator.Nid))
				continue
			}
			if ev.MLength == 1 {
				sentinels++
				continue
			}
			if ev.HdrData != fl.next {
				mu = append(mu, fmt.Sprintf("rx: nid %d out of order: got seq %d want %d", ev.Initiator.Nid, ev.HdrData, fl.next))
			}
			fl.next = ev.HdrData + 1
			data := make([]byte, ev.MLength)
			buf.ReadAt(ev.Offset, data)
			wantFill := fillByte(ev.Initiator.Nid, ev.HdrData)
			for _, v := range data {
				if v != wantFill {
					mu = append(mu, fmt.Sprintf("rx: nid %d seq %d corrupted: byte %#x want %#x", ev.Initiator.Nid, ev.HdrData, v, wantFill))
					break
				}
			}
			received++
		}
	})
	for i, s := range senders {
		s := s
		slot := i
		fl := flows[uint32(s)]
		m.Spawn(s, fmt.Sprintf("soak-tx-%d", s), machine.Generic, func(app *machine.App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			eq, err := app.API.EQAlloc(8192)
			if err != nil {
				panic(err)
			}
			src := app.Alloc(B)
			md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: eq})
			if err != nil {
				panic(err)
			}
			for seq := uint64(0); app.Proc.Now() < until; seq++ {
				src.WriteAt(0, fill(B, fillByte(uint32(s), seq)))
				if err := app.API.PutRegion(md, 0, B, core.NoAck, rx.ID(),
					soakPtl, soakMatch, slot*B, seq); err != nil {
					panic(err)
				}
				waitSendEnd(app, eq)
				fl.sent++
			}
			src.WriteAt(0, []byte{0xff})
			if err := app.API.PutRegion(md, 0, 1, core.NoAck, rx.ID(),
				soakPtl, soakMatch, slot*B, ^uint64(0)); err != nil {
				panic(err)
			}
			waitSendEnd(app, eq)
		})
	}
	m.StartStallDetector(sched.StallWindow())
	m.Run()

	res.Msgs = received
	sent := 0
	ids := make([]uint32, 0, len(flows))
	for nid := range flows {
		ids = append(ids, nid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, nid := range ids {
		fl := flows[nid]
		sent += fl.sent
		if int(fl.next) != fl.sent {
			mu = append(mu, fmt.Sprintf("nid %d: sent %d messages, receiver saw %d", nid, fl.sent, fl.next))
		}
	}
	if received != sent {
		mu = append(mu, fmt.Sprintf("delivered %d of %d messages", received, sent))
	}
	res.Errors = append(res.Errors, mu...)
	audit(m, res)
}

// fillByte is the uniform fill of message seq from sender nid — a pure
// function any observer can recompute.
func fillByte(nid uint32, seq uint64) byte {
	return byte(nid<<4) | byte(seq%13+1)
}

func fill(n int, v byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// waitSendEnd consumes events until the put's SEND_END arrives.
func waitSendEnd(app *machine.App, eq core.EQHandle) {
	for {
		ev, err := app.API.EQWait(eq)
		if err != nil && err != core.ErrEQDropped {
			panic(err)
		}
		if ev.Type == core.EventSendEnd {
			return
		}
	}
}
