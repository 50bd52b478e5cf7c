// Redstorm: the full 10,368-node Red Storm machine (§5.1) — 27×16×24,
// torus in Z only. Nodes build lazily, so declaring the whole machine is
// free; the example measures how put latency grows with network distance,
// the effect behind the 2 µs nearest-neighbor / 5 µs worst-case MPI
// requirements of §1, and then runs a small MPI job on nodes scattered
// across the machine.
//
//	go run ./examples/redstorm
package main

import (
	"fmt"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

const (
	ptl   = 4
	bits  = 1
	iters = 20
)

// latencyBetween measures one-way 8-byte put latency between two nodes of
// a fresh Red Storm machine.
func latencyBetween(rs *topo.Topology, na, nb topo.NodeID) sim.Time {
	m := machine.NewSharded(model.Defaults(), rs, 1)
	var rtt sim.Time
	setup := func(app *machine.App) (core.EQHandle, core.MDHandle) {
		eq, _ := app.API.EQAlloc(256)
		me, _ := app.API.MEAttach(ptl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
			bits, 0, core.Retain, core.After)
		app.API.MDAttach(me, core.MDesc{Region: app.Alloc(64), Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)
		md, _ := app.API.MDBind(core.MDesc{Region: app.Alloc(64), Threshold: core.ThresholdInfinite,
			Options: core.MDEventStartDisable, EQ: eq})
		return eq, md
	}
	waitPut := func(app *machine.App, eq core.EQHandle) {
		for {
			ev, _ := app.API.EQWait(eq)
			if ev.Type == core.EventPutEnd {
				return
			}
		}
	}
	var a, b *machine.App
	b, _ = m.Spawn(nb, "pong", machine.Generic, func(app *machine.App) {
		eq, md := setup(app)
		for i := 0; i < iters+1; i++ {
			waitPut(app, eq)
			app.API.PutRegion(md, 0, 8, core.NoAck, a.ID(), ptl, bits, 0, 0)
		}
	})
	a, _ = m.Spawn(na, "ping", machine.Generic, func(app *machine.App) {
		eq, md := setup(app)
		app.Proc.Sleep(100 * sim.Microsecond)
		app.API.PutRegion(md, 0, 8, core.NoAck, b.ID(), ptl, bits, 0, 0)
		waitPut(app, eq)
		t0 := app.Proc.Now()
		for i := 0; i < iters; i++ {
			app.API.PutRegion(md, 0, 8, core.NoAck, b.ID(), ptl, bits, 0, 0)
			waitPut(app, eq)
		}
		rtt = (app.Proc.Now() - t0) / iters
	})
	m.Run()
	return rtt / 2
}

func main() {
	rs := topo.RedStorm()
	nx, ny, nz := rs.Dims()
	fmt.Printf("Red Storm: %dx%dx%d = %d nodes, torus in Z, diameter %d hops\n\n",
		nx, ny, nz, rs.Nodes(), rs.Diameter())

	origin := rs.ID(topo.Coord{X: 0, Y: 0, Z: 0})
	pairs := []struct {
		name string
		dst  topo.Coord
	}{
		{"nearest neighbor (1 hop)", topo.Coord{X: 1, Y: 0, Z: 0}},
		{"across one cabinet row", topo.Coord{X: 13, Y: 0, Z: 0}},
		{"opposite corner of a plane", topo.Coord{X: 26, Y: 15, Z: 0}},
		{"farthest pair (diameter)", topo.Coord{X: 26, Y: 15, Z: 12}},
	}
	fmt.Println("8-byte put latency by distance (paper §1: 2 us near, 5 us far for MPI):")
	for _, p := range pairs {
		dst := rs.ID(p.dst)
		lat := latencyBetween(rs, origin, dst)
		fmt.Printf("  %-28s %2d hops   %v\n", p.name, rs.Hops(origin, dst), lat)
	}

	// An MPI job on eight nodes scattered across the machine: rank i at
	// coordinate (3i, i, 2i) — the job spans dozens of hops yet only the
	// eight touched nodes are ever instantiated.
	fmt.Println("\nscattered 8-rank MPI job, allreduce across the machine:")
	m := machine.NewSharded(model.Defaults(), rs, 1)
	var nodes []topo.NodeID
	for i := 0; i < 8; i++ {
		nodes = append(nodes, rs.ID(topo.Coord{X: 3 * i, Y: i, Z: 2 * i}))
	}
	var elapsed sim.Time
	err := mpi.Launch(m, nodes, mpi.MPICH2, machine.Generic, func(r *mpi.Rank) {
		buf := r.Alloc(8)
		one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
		buf.WriteAt(0, one)
		r.Barrier()
		t0 := r.Proc().Now()
		r.Allreduce(mpi.SumUint64, buf, 0, 8)
		if r.Rank() == 0 {
			elapsed = r.Proc().Now() - t0
			got := make([]byte, 8)
			buf.ReadAt(0, got)
			fmt.Printf("  sum over 8 scattered ranks = %d (want 8), allreduce took %v\n", got[0], elapsed)
		}
	})
	if err != nil {
		panic(err)
	}
	m.Run()
	fmt.Printf("  nodes instantiated: %d of %d\n", len(m.Stats().Nodes), rs.Nodes())
}
