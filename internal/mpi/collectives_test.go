package mpi

import (
	"encoding/binary"
	"testing"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// launchN runs an MPI job over n nodes in a line.
func launchN(t *testing.T, n int, main func(r *Rank)) {
	t.Helper()
	tp, err := topo.New(n, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewSharded(model.Defaults(), tp, 1)
	nodes := make([]topo.NodeID, n)
	for i := range nodes {
		nodes[i] = topo.NodeID(i)
	}
	if err := Launch(m, nodes, MPICH1, machine.Generic, main); err != nil {
		t.Fatal(err)
	}
	m.Run()
}

func putU64s(r core.Region, vals ...uint64) {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	r.WriteAt(0, b)
}

func getU64(t *testing.T, r core.Region, idx int) uint64 {
	t.Helper()
	b := make([]byte, 8)
	r.ReadAt(8*idx, b)
	return binary.LittleEndian.Uint64(b)
}

func TestBcastFromEveryRoot(t *testing.T) {
	const ranks = 7 // non-power-of-two exercises the tree edges
	for root := 0; root < ranks; root++ {
		root := root
		launchN(t, ranks, func(r *Rank) {
			buf := r.Alloc(64)
			if r.Rank() == root {
				fill(buf, 64, byte(40+root))
			}
			r.Bcast(root, buf, 0, 64)
			check(t, buf, 64, byte(40+root))
		})
	}
}

func TestReduceSum(t *testing.T) {
	const ranks = 6
	launchN(t, ranks, func(r *Rank) {
		buf := r.Alloc(24)
		putU64s(buf, uint64(r.Rank()), uint64(r.Rank()*10), 1)
		r.Reduce(0, SumUint64, buf, 0, 24)
		if r.Rank() == 0 {
			// sum 0..5 = 15; *10 = 150; count = 6.
			if getU64(t, buf, 0) != 15 || getU64(t, buf, 1) != 150 || getU64(t, buf, 2) != 6 {
				t.Errorf("reduce got %d %d %d", getU64(t, buf, 0), getU64(t, buf, 1), getU64(t, buf, 2))
			}
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	const ranks = 5
	launchN(t, ranks, func(r *Rank) {
		buf := r.Alloc(8)
		putU64s(buf, uint64(100+r.Rank()*r.Rank()))
		r.Allreduce(MaxUint64, buf, 0, 8)
		if got := getU64(t, buf, 0); got != 116 { // 100+4*4
			t.Errorf("rank %d: allreduce max = %d, want 116", r.Rank(), got)
		}
	})
}

func TestGatherCollectsInRankOrder(t *testing.T) {
	const ranks = 5
	launchN(t, ranks, func(r *Rank) {
		buf := r.Alloc(8)
		putU64s(buf, uint64(1000+r.Rank()))
		dst := r.Alloc(8 * ranks)
		r.Gather(2, buf, 0, 8, dst)
		if r.Rank() == 2 {
			for i := 0; i < ranks; i++ {
				if got := getU64(t, dst, i); got != uint64(1000+i) {
					t.Errorf("slot %d = %d", i, got)
				}
			}
		}
	})
}

func TestBcastScalesLogarithmically(t *testing.T) {
	// A binomial tree's critical path grows with log2(P), not P: the
	// 16-rank broadcast must take far less than 15/3 of the 4-rank one.
	timeFor := func(ranks int) sim.Time {
		tp, _ := topo.New(ranks, 1, 1, false, false, false)
		m := machine.NewSharded(model.Defaults(), tp, 1)
		nodes := make([]topo.NodeID, ranks)
		for i := range nodes {
			nodes[i] = topo.NodeID(i)
		}
		// The broadcast's cost is when the last rank finishes, measured
		// from the synchronized start.
		var start sim.Time
		done := make([]sim.Time, ranks)
		Launch(m, nodes, MPICH1, machine.Generic, func(r *Rank) {
			buf := r.Alloc(8)
			r.Barrier()
			if r.Rank() == 0 {
				start = r.Proc().Now()
			}
			r.Bcast(0, buf, 0, 8)
			done[r.Rank()] = r.Proc().Now()
		})
		m.Run()
		var last sim.Time
		for _, d := range done {
			if d > last {
				last = d
			}
		}
		return last - start
	}
	t4, t16 := timeFor(4), timeFor(16)
	if t16 > 3*t4 {
		t.Errorf("bcast(16)=%v vs bcast(4)=%v: not logarithmic", t16, t4)
	}
}

func TestAllreduceConvergesAcrossImpls(t *testing.T) {
	for _, impl := range []Impl{MPICH1, MPICH2} {
		impl := impl
		tp, _ := topo.New(4, 1, 1, false, false, false)
		m := machine.NewSharded(model.Defaults(), tp, 1)
		if err := Launch(m, []topo.NodeID{0, 1, 2, 3}, impl, machine.Generic, func(r *Rank) {
			buf := r.Alloc(8)
			putU64s(buf, uint64(r.Rank()+1))
			r.Allreduce(SumUint64, buf, 0, 8)
			if got := getU64(t, buf, 0); got != 10 {
				t.Errorf("%v rank %d: sum = %d, want 10", impl, r.Rank(), got)
			}
		}); err != nil {
			t.Fatal(err)
		}
		m.Run()
	}
}

func TestScatterDistributesSlices(t *testing.T) {
	const ranks, n = 5, 8
	launchN(t, ranks, func(r *Rank) {
		var src core.Region
		if r.Rank() == 1 {
			src = r.Alloc(n * ranks)
			for i := 0; i < ranks; i++ {
				b := make([]byte, 8)
				for j := range b {
					b[j] = byte(i*16 + j)
				}
				src.WriteAt(i*n, b)
			}
		} else {
			src = r.Alloc(1)
		}
		dst := r.Alloc(n)
		r.Scatter(1, src, dst, 0, n)
		got := make([]byte, n)
		dst.ReadAt(0, got)
		for j := range got {
			if got[j] != byte(r.Rank()*16+j) {
				t.Fatalf("rank %d byte %d = %#x", r.Rank(), j, got[j])
			}
		}
	})
}

func TestWaitall(t *testing.T) {
	const n = 128
	runJob(t, MPICH1, func(r *Rank) {
		other := 1 - r.Rank()
		out, in1, in2 := r.Alloc(n), r.Alloc(n), r.Alloc(n)
		fill(out, n, byte(50+r.Rank()))
		rq1 := r.Irecv(other, 1, in1, 0, n)
		rq2 := r.Irecv(other, 2, in2, 0, n)
		s1 := r.Isend(other, 1, out, 0, n)
		s2 := r.Isend(other, 2, out, 0, n)
		Waitall(rq1, rq2, s1, s2)
		check(t, in1, n, byte(50+other))
		check(t, in2, n, byte(50+other))
	})
}
