package mpi_test

import (
	"fmt"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/topo"
)

// Example_pingpong runs a two-rank MPI job on a simulated XT3 pair: the
// MPICH-1.2.6 profile over the full Portals/SeaStar stack.
func Example_pingpong() {
	m := machine.NewPair(model.Defaults())
	err := mpi.Launch(m, []topo.NodeID{0, 1}, mpi.MPICH1, machine.Generic, func(r *mpi.Rank) {
		const n = 16
		buf := r.Alloc(n)
		if r.Rank() == 0 {
			msg := []byte("hello from rank0")
			buf.WriteAt(0, msg)
			r.Send(1, 42, buf, 0, n)
			r.Recv(1, 43, buf, 0, n)
			got := make([]byte, n)
			buf.ReadAt(0, got)
			fmt.Printf("rank 0 got back: %s\n", got)
		} else {
			got := r.Recv(0, 42, buf, 0, n)
			data := make([]byte, got)
			buf.ReadAt(0, data)
			fmt.Printf("rank 1 received %d bytes: %s\n", got, data)
			buf.WriteAt(0, []byte("hello from rank1"))
			r.Send(0, 43, buf, 0, n)
		}
	})
	if err != nil {
		panic(err)
	}
	m.Run()
	// Output:
	// rank 1 received 16 bytes: hello from rank0
	// rank 0 got back: hello from rank1
}

// Example_allreduce shows the binomial-tree collectives on four ranks.
func Example_allreduce() {
	tp, _ := topo.New(4, 1, 1, false, false, false)
	m := machine.NewSharded(model.Defaults(), tp, 1)
	err := mpi.Launch(m, []topo.NodeID{0, 1, 2, 3}, mpi.MPICH2, machine.Generic, func(r *mpi.Rank) {
		buf := r.Alloc(8)
		buf.WriteAt(0, []byte{byte(r.Rank() + 1), 0, 0, 0, 0, 0, 0, 0})
		r.Allreduce(mpi.SumUint64, buf, 0, 8)
		if r.Rank() == 0 {
			got := make([]byte, 8)
			buf.ReadAt(0, got)
			fmt.Printf("sum of ranks 1..4 = %d\n", got[0])
		}
	})
	if err != nil {
		panic(err)
	}
	m.Run()
	// Output:
	// sum of ranks 1..4 = 10
}
