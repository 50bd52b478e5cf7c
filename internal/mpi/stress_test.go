package mpi

import (
	"testing"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

func TestIsendIrecvOutOfOrderTags(t *testing.T) {
	// Post receives for tags 3,2,1 (in that order), send tags 1,2,3: MPI
	// matching is by envelope, not posting order across different tags.
	const n = 256
	runJob(t, MPICH1, func(r *Rank) {
		if r.Rank() == 0 {
			for tag := 1; tag <= 3; tag++ {
				buf := r.Alloc(n)
				fill(buf, n, byte(tag*20))
				r.Send(1, tag, buf, 0, n)
			}
		} else {
			var reqs []*Request
			var bufs []interface {
				ReadAt(int, []byte)
			}
			for tag := 3; tag >= 1; tag-- {
				buf := r.Alloc(n)
				bufs = append(bufs, buf)
				reqs = append(reqs, r.Irecv(0, tag, buf, 0, n))
			}
			for i, rq := range reqs {
				rq.Wait()
				tag := 3 - i
				got := make([]byte, n)
				bufs[i].ReadAt(0, got)
				for j := range got {
					if got[j] != byte(tag*20)+byte(j*7) {
						t.Fatalf("tag %d byte %d = %#x", tag, j, got[j])
					}
				}
			}
		}
	})
}

func TestManyOutstandingIrecvsSameTag(t *testing.T) {
	// 16 pre-posted receives with one signature drain a burst in order.
	const msgs, n = 16, 512
	runJob(t, MPICH2, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			for i := 0; i < msgs; i++ {
				fill(buf, n, byte(i))
				r.Send(1, 5, buf, 0, n)
			}
		} else {
			var reqs []*Request
			var bufs []interface{ ReadAt(int, []byte) }
			for i := 0; i < msgs; i++ {
				buf := r.Alloc(n)
				bufs = append(bufs, buf)
				reqs = append(reqs, r.Irecv(0, 5, buf, 0, n))
			}
			for i, rq := range reqs {
				rq.Wait()
				got := make([]byte, n)
				bufs[i].ReadAt(0, got)
				if got[0] != byte(i) {
					t.Fatalf("posted receive %d got message %d: non-overtaking violated", i, got[0])
				}
			}
		}
	})
}

func TestRendezvousFromPagedLinuxBuffers(t *testing.T) {
	// Linux nodes: the rendezvous get pulls from a paged (multi-segment)
	// buffer into a paged buffer — the per-page DMA command path of §3.3.
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.NewSharded(p, tp, 1)
	m.OSKind = func(topo.NodeID) oskernel.Kind { return oskernel.Linux }
	const n = 512 << 10
	err := Launch(m, []topo.NodeID{0, 1}, MPICH2, machine.Generic, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(n)
			if buf.Segments() < 2 {
				t.Error("Linux buffer should be paged")
			}
			fill(buf, n, 21)
			r.Send(1, 9, buf, 0, n)
			if r.RdvSends != 1 {
				t.Errorf("expected rendezvous, got eager=%d rdv=%d", r.EagerSends, r.RdvSends)
			}
		} else {
			buf := r.Alloc(n)
			if got := r.Recv(0, 9, buf, 0, n); got != n {
				t.Fatalf("got %d", got)
			}
			check(t, buf, n, 21)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
}

func TestMPIOverAcceleratedMode(t *testing.T) {
	// The full MPI stack on the offloaded path: matching on the NIC, no
	// data-path interrupts. Exercises eager, rendezvous, unexpected
	// messages and the race-free posting protocol under the accelerated
	// driver's locking.
	m := machine.NewPair(model.Defaults())
	const small, big = 1024, 256 << 10
	err := Launch(m, []topo.NodeID{0, 1}, MPICH1, machine.Accelerated, func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Alloc(big)
			fill(buf, small, 3)
			r.Send(1, 1, buf, 0, small) // eager, lands unexpected
			fill(buf, big, 9)
			r.Send(1, 2, buf, 0, big) // rendezvous
			ack := r.Alloc(8)
			r.Recv(1, 3, ack, 0, 8)
		} else {
			r.Proc().Sleep(100 * sim.Microsecond) // force the unexpected path
			buf := r.Alloc(big)
			if got := r.Recv(0, 1, buf, 0, small); got != small {
				t.Errorf("eager got %d", got)
			}
			check(t, buf, small, 3)
			if got := r.Recv(0, 2, buf, 0, big); got != big {
				t.Errorf("rdv got %d", got)
			}
			check(t, buf, big, 9)
			r.Send(0, 3, buf, 0, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if irq := m.Node(0).Kernel.Interrupts + m.Node(1).Kernel.Interrupts; irq != 0 {
		t.Errorf("accelerated MPI took %d interrupts, want 0", irq)
	}
}

func TestBidirectionalSaturation(t *testing.T) {
	// Simultaneous large sends in both directions complete without
	// deadlock and in about the one-direction time (full duplex).
	const n = 2 << 20
	var done [2]sim.Time
	runJob(t, MPICH2, func(r *Rank) {
		other := 1 - r.Rank()
		out := r.Alloc(n)
		in := r.Alloc(n)
		r.Barrier()
		start := r.Proc().Now()
		rq := r.Irecv(other, 1, in, 0, n)
		sq := r.Isend(other, 1, out, 0, n)
		sq.Wait()
		rq.Wait()
		done[r.Rank()] = r.Proc().Now() - start
	})
	solo := sim.BytesAt(n, model.Defaults().HTReadBps)
	for rank, d := range done {
		if d > solo+solo/4 {
			t.Errorf("rank %d bidirectional exchange took %v, solo transfer is %v: not full duplex", rank, d, solo)
		}
	}
}
