package mpi

import (
	"testing"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// runJob launches a two-rank job and runs the simulation to completion.
func runJob(t *testing.T, impl Impl, main func(r *Rank)) *machine.Machine {
	t.Helper()
	m := machine.NewPair(model.Defaults())
	if err := Launch(m, []topo.NodeID{0, 1}, impl, machine.Generic, main); err != nil {
		t.Fatal(err)
	}
	m.Run()
	return m
}

// fill writes a recognizable pattern.
func fill(r core.Region, n int, seed byte) {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	r.WriteAt(0, b)
}

func check(t *testing.T, r core.Region, n int, seed byte) {
	t.Helper()
	b := make([]byte, n)
	r.ReadAt(0, b)
	for i := range b {
		if b[i] != seed+byte(i*7) {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], seed+byte(i*7))
		}
	}
}

func TestEagerSendRecv(t *testing.T) {
	const n = 1024
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			fill(buf, n, 3)
			r.Send(1, 42, buf, 0, n)
		} else {
			buf := r.Alloc(n)
			got := r.Recv(0, 42, buf, 0, n)
			if got != n {
				t.Errorf("received %d bytes, want %d", got, n)
			}
			check(t, buf, n, 3)
			if r.EagerSends != 0 { // receiver sent nothing
				t.Errorf("receiver eager sends = %d", r.EagerSends)
			}
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	const n = 1 << 20 // above both eager thresholds
	runJob(t, MPICH2, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			fill(buf, n, 9)
			r.Send(1, 7, buf, 0, n)
			if r.RdvSends != 1 {
				t.Errorf("rdv sends = %d, want 1", r.RdvSends)
			}
		} else {
			buf := r.Alloc(n)
			got := r.Recv(0, 7, buf, 0, n)
			if got != n {
				t.Errorf("received %d, want %d", got, n)
			}
			check(t, buf, n, 9)
		}
	})
}

func TestEagerThresholdDiffersByImpl(t *testing.T) {
	p := model.Defaults()
	c1, c2 := ConfigFor(&p, MPICH1), ConfigFor(&p, MPICH2)
	if c1.EagerMax == c2.EagerMax {
		t.Error("the two implementations should switch protocols at different sizes")
	}
	size := (c1.EagerMax + c2.EagerMax) / 2 // eager for one, rendezvous for the other
	for _, impl := range []Impl{MPICH1, MPICH2} {
		impl := impl
		runJob(t, impl, func(r *Rank) {
			if r.Rank() == 0 {
				buf := r.Alloc(size)
				fill(buf, size, 1)
				r.Send(1, 1, buf, 0, size)
				wantEager := uint64(0)
				if size <= r.Config().EagerMax {
					wantEager = 1
				}
				if r.EagerSends != wantEager {
					t.Errorf("%v: eager=%d rdv=%d for %d bytes", impl, r.EagerSends, r.RdvSends, size)
				}
			} else {
				buf := r.Alloc(size)
				r.Recv(0, 1, buf, 0, size)
				check(t, buf, size, 1)
			}
		})
	}
}

func TestUnexpectedEagerMessage(t *testing.T) {
	const n = 512
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			fill(buf, n, 5)
			r.Send(1, 99, buf, 0, n)
		} else {
			// Post long after the message arrived.
			r.Proc().Sleep(500 * sim.Microsecond)
			buf := r.Alloc(n)
			got := r.Recv(0, 99, buf, 0, n)
			if got != n {
				t.Errorf("got %d", got)
			}
			check(t, buf, n, 5)
			if r.Unexpected == 0 {
				t.Error("message should have landed in a sink")
			}
		}
	})
}

func TestUnexpectedRendezvous(t *testing.T) {
	const n = 256 << 10
	runJob(t, MPICH2, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			fill(buf, n, 8)
			r.Send(1, 5, buf, 0, n)
		} else {
			r.Proc().Sleep(500 * sim.Microsecond)
			buf := r.Alloc(n)
			if got := r.Recv(0, 5, buf, 0, n); got != n {
				t.Errorf("got %d", got)
			}
			check(t, buf, n, 8)
			if r.Unexpected == 0 {
				t.Error("RTS should have landed in a sink")
			}
		}
	})
}

func TestAnySourceAnyTagResolution(t *testing.T) {
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(64)
			r.Send(1, 1234, buf, 0, 64)
		} else {
			buf := r.Alloc(64)
			req := r.Irecv(AnySource, AnyTag, buf, 0, 64)
			req.Wait()
			if req.Source != 0 || req.Tag != 1234 {
				t.Errorf("resolved src=%d tag=%d", req.Source, req.Tag)
			}
		}
	})
}

func TestMessageOrderingSameSignature(t *testing.T) {
	const msgs = 20
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				buf := r.Alloc(16)
				fill(buf, 16, byte(i))
				r.Send(1, 7, buf, 0, 16)
			}
		} else {
			// Let several arrive unexpected, then drain in order.
			r.Proc().Sleep(200 * sim.Microsecond)
			for i := 0; i < msgs; i++ {
				buf := r.Alloc(16)
				r.Recv(0, 7, buf, 0, 16)
				check(t, buf, 16, byte(i))
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	const n = 4096
	runJob(t, MPICH2, func(r *Rank) {
		me, other := r.Rank(), 1-r.Rank()
		out := r.Alloc(n)
		in := r.Alloc(n)
		fill(out, n, byte(10+me))
		got := r.Sendrecv(other, 3, out, 0, n, other, 3, in, 0, n)
		if got != n {
			t.Errorf("rank %d got %d", me, got)
		}
		check(t, in, n, byte(10+other))
	})
}

func TestTruncatedReceive(t *testing.T) {
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(1000)
			r.Send(1, 2, buf, 0, 1000)
		} else {
			buf := r.Alloc(100)
			if got := r.Recv(0, 2, buf, 0, 100); got != 100 {
				t.Errorf("truncated recv returned %d, want 100", got)
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	p := model.Defaults()
	tp, err := topo.New(4, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewSharded(p, tp, 1)
	before := make([]sim.Time, 4)
	after := make([]sim.Time, 4)
	err = Launch(m, []topo.NodeID{0, 1, 2, 3}, MPICH1, machine.Generic, func(r *Rank) {
		// Stagger arrivals.
		r.Proc().Sleep(sim.Time(r.Rank()) * 100 * sim.Microsecond)
		before[r.Rank()] = r.Proc().Now()
		r.Barrier()
		after[r.Rank()] = r.Proc().Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var latest sim.Time
	for _, b := range before {
		if b > latest {
			latest = b
		}
	}
	for rank, a := range after {
		if a < latest {
			t.Errorf("rank %d left the barrier at %v before rank 3 arrived at %v", rank, a, latest)
		}
	}
}

func TestSinkRespawnUnderUnexpectedFlood(t *testing.T) {
	// Enough unexpected eager traffic to unlink sinks (MaxSize rule) and
	// force respawns once the receiver drains. Kept within the total sink
	// capacity (numSinks × sinkBytes): an application that does no MPI
	// progress cannot respawn sinks, so exceeding the capacity drops
	// messages — the classic Portals-MPI unexpected-flood hazard, which
	// the real implementations also sized around.
	const msgs = 24
	const n = 60 << 10 // below eager max, large enough to chew sink space
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			for i := 0; i < msgs; i++ {
				r.Send(1, 4, buf, 0, n)
			}
		} else {
			r.Proc().Sleep(20 * sim.Millisecond) // all arrive unexpected
			buf := r.Alloc(n)
			for i := 0; i < msgs; i++ {
				if got := r.Recv(0, 4, buf, 0, n); got != n {
					t.Fatalf("msg %d: got %d", i, got)
				}
			}
			if r.SinkRespawn == 0 {
				t.Error("40×60KB of unexpected data never recycled a 512KB sink")
			}
		}
	})
}

// mpiLatency measures a single ping-pong RTT/2 at the MPI level.
func mpiLatency(t *testing.T, impl Impl, n int) sim.Time {
	t.Helper()
	m := machine.NewPair(model.Defaults())
	var lat sim.Time
	err := Launch(m, []topo.NodeID{0, 1}, impl, machine.Generic, func(r *Rank) {
		buf := r.Alloc(maxInt(n, 1))
		r.Barrier()
		if r.Rank() == 0 {
			start := r.Proc().Now()
			r.Send(1, 1, buf, 0, n)
			r.Recv(1, 2, buf, 0, n)
			lat = (r.Proc().Now() - start) / 2
		} else {
			r.Recv(0, 1, buf, 0, n)
			r.Send(0, 2, buf, 0, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	return lat
}

func TestMPIOverheadOrdering(t *testing.T) {
	m1 := mpiLatency(t, MPICH1, 1)
	m2 := mpiLatency(t, MPICH2, 1)
	if m1 >= m2 {
		t.Errorf("MPICH1 (%v) should beat MPICH2 (%v) at 1 byte (paper §6: 7.97 vs 8.40 µs)", m1, m2)
	}
	// Both sit within the paper's ballpark.
	if m1 < 6*sim.Microsecond || m2 > 12*sim.Microsecond {
		t.Errorf("MPI latencies out of range: %v / %v", m1, m2)
	}
}

// TestLaunchAfterMachineHasRun launches on a machine whose clock is already
// past DefaultStart: the start barrier is relative to the machine's time,
// so the job starts DefaultStart later instead of overrunning its barrier.
func TestLaunchAfterMachineHasRun(t *testing.T) {
	m := machine.NewPair(model.Defaults())
	m.RunUntil(2 * DefaultStart)
	t0 := m.S.Now()
	const n = 256
	for job := 0; job < 2; job++ {
		var started sim.Time
		err := Launch(m, []topo.NodeID{0, 1}, MPICH1, machine.Generic, func(r *Rank) {
			buf := r.Alloc(n)
			if r.Rank() == 0 {
				started = r.Proc().Now()
				fill(buf, n, 5)
				r.Send(1, 1, buf, 0, n)
			} else if got := r.Recv(0, 1, buf, 0, n); got != n {
				t.Errorf("job %d received %d bytes, want %d", job, got, n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		if want := t0 + DefaultStart; started != want {
			t.Errorf("job %d started at %v, want %v", job, started, want)
		}
		t0 = m.S.Now()
	}
}
