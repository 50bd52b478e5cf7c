// Halo: the scientific workload the platform was built for — a 3D
// nearest-neighbor halo exchange over MPI on a torus, the communication
// pattern of the stencil codes that motivated Red Storm (§1).
//
// A 4x4x4 job runs several iterations of six-direction ghost-cell
// exchanges with an allreduce-style barrier between steps, and reports the
// per-iteration exchange time.
//
//	go run ./examples/halo
package main

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

const (
	side      = 4        // 4x4x4 = 64 ranks
	faceBytes = 32 << 10 // one ghost face
	steps     = 5
)

func main() {
	tp, err := topo.New(side, side, side, true, true, true)
	if err != nil {
		panic(err)
	}
	// One event lane per CPU; the simulated results are identical at any
	// lane count.
	m := machine.NewSharded(model.Defaults(), tp, runtime.GOMAXPROCS(0))

	nodes := make([]topo.NodeID, tp.Nodes())
	for i := range nodes {
		nodes[i] = topo.NodeID(i)
	}

	// Rank i runs on node i, so MPI rank geometry equals machine geometry:
	// neighbors in the job are neighbors on the torus.
	var perStep [steps]sim.Time
	err = mpi.Launch(m, nodes, mpi.MPICH1, machine.Generic, func(r *mpi.Rank) {
		me := topo.NodeID(r.Rank())
		coord := tp.Coord(me)

		// The six face neighbors on the torus.
		var nbr [6]int
		k := 0
		for _, axis := range []topo.Axis{topo.X, topo.Y, topo.Z} {
			for _, sign := range []int{+1, -1} {
				n, ok := tp.Neighbor(me, topo.Dir{Axis: axis, Sign: sign})
				if !ok {
					panic("torus neighbor missing")
				}
				nbr[k] = int(n)
				k++
			}
		}

		send := r.Alloc(faceBytes)
		recv := r.Alloc(faceBytes)
		residual := r.Alloc(8)
		r.Barrier()
		for step := 0; step < steps; step++ {
			t0 := r.Proc().Now()
			// Exchange along each axis: swap faces with the +/- neighbors.
			// Pairing by direction keeps every rank's send matched with the
			// opposite neighbor's receive.
			for d := 0; d < 6; d += 2 {
				plus, minus := nbr[d], nbr[d+1]
				r.Sendrecv(plus, 100+d, send, 0, faceBytes, minus, 100+d, recv, 0, faceBytes)
				r.Sendrecv(minus, 200+d, send, 0, faceBytes, plus, 200+d, recv, 0, faceBytes)
			}
			// The solver's convergence check: a global residual reduction,
			// as every iterative stencil code does per step.
			local := make([]byte, 8)
			binary.LittleEndian.PutUint64(local, uint64(r.Rank()+step))
			residual.WriteAt(0, local)
			r.Allreduce(mpi.SumUint64, residual, 0, 8)
			if r.Rank() == 0 {
				perStep[step] = r.Proc().Now() - t0
				residual.ReadAt(0, local)
				want := uint64(0)
				for i := 0; i < tp.Nodes(); i++ {
					want += uint64(i + step)
				}
				if binary.LittleEndian.Uint64(local) != want {
					panic("allreduce residual mismatch")
				}
			}
		}
		if r.Rank() == 0 {
			fmt.Printf("rank 0 at %v%v exchanged %d B faces with %v\n",
				me, coord, faceBytes, nbr)
		}
	})
	if err != nil {
		panic(err)
	}
	m.Run()

	fmt.Printf("%d ranks on a %dx%dx%d torus, %d KB faces\n", tp.Nodes(), side, side, side, faceBytes>>10)
	for i, t := range perStep {
		fmt.Printf("step %d: halo exchange + allreduce took %v\n", i, t)
	}
	// A taste of the fabric counters: how busy was a middle node's +X link?
	mid := tp.ID(topo.Coord{X: 1, Y: 1, Z: 1})
	fmt.Printf("link utilization at node %d X+: %.1f%%\n",
		mid, 100*m.LinkUtilization(mid, topo.Dir{Axis: topo.X, Sign: 1}))
}
