package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

type arrival struct {
	kind string // "hdr" or "chunk"
	off  int
	n    int
	at   sim.Time
}

// fakeEP records deliveries and reassembles payloads like a NIC would.
type fakeEP struct {
	win      *sim.Credits
	arrivals []arrival
	buf      []byte
	lastMsg  *Message
	autoFree bool // return credits immediately on delivery
}

func newFakeEP(s *sim.Sim, window int64, autoFree bool) *fakeEP {
	return &fakeEP{win: sim.NewCredits(s, "rxwin", window), autoFree: autoFree}
}

func (e *fakeEP) HeaderArrived(m *Message) {
	e.lastMsg = m
	e.arrivals = append(e.arrivals, arrival{kind: "hdr", n: wire.PacketBytes})
	if e.autoFree {
		e.win.Put(int64(wire.PacketBytes))
	}
	e.buf = append(e.buf, m.Inline...)
}

func (e *fakeEP) ChunkArrived(c *Chunk) {
	e.arrivals = append(e.arrivals, arrival{kind: "chunk", off: c.Off, n: len(c.Data)})
	e.buf = append(e.buf, c.Data...)
	if e.autoFree {
		e.win.Put(int64(len(c.Data)))
	}
}

func (e *fakeEP) RxWindow() *sim.Credits { return e.win }

// timedEP wraps fakeEP recording arrival times.
type timedEP struct {
	*fakeEP
	s     *sim.Sim
	times []sim.Time
}

func (e *timedEP) HeaderArrived(m *Message) {
	e.times = append(e.times, e.s.Now())
	e.fakeEP.HeaderArrived(m)
}

func (e *timedEP) ChunkArrived(c *Chunk) {
	e.times = append(e.times, e.s.Now())
	e.fakeEP.ChunkArrived(c)
}

// testFabric is a one-lane cluster over a row of n nodes, every node
// attached to a timed endpoint with a roomy auto-freeing window.
type testFabric struct {
	k   *sim.Kernel
	s   *sim.Sim
	cl  *Cluster
	eps []*timedEP
}

func newTestFabric(t *testing.T, p model.Params, n int) *testFabric {
	t.Helper()
	tp, err := topo.New(n, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1, MinHandoffLatency(&p))
	tf := &testFabric{k: k, s: k.Lane(0), cl: NewCluster(k, tp, &p, func(topo.NodeID) int { return 0 })}
	for id := 0; id < n; id++ {
		ep := &timedEP{fakeEP: newFakeEP(tf.s, 1<<20, true), s: tf.s}
		tf.eps = append(tf.eps, ep)
		tf.cl.Port(topo.NodeID(id)).Attach(ep)
	}
	return tf
}

func pairFabric(t *testing.T, p model.Params) (*testFabric, *NodePort, *timedEP) {
	t.Helper()
	tf := newTestFabric(t, p, 2)
	return tf, tf.cl.Port(0), tf.eps[1]
}

// sendAll injects m's header and then its payload in ChunkBytes chunks,
// as the TX DMA engine would.
func sendAll(pt *NodePort, m *Message, payload []byte, chunkBytes int) {
	pt.SendHeader(m)
	for off := 0; off < len(payload); off += chunkBytes {
		end := off + chunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		pt.SendChunk(&Chunk{Msg: m, Off: off, Data: append([]byte(nil), payload[off:end]...), Last: end == len(payload)})
	}
}

func putHeader(src, dst uint32, n int) wire.Header {
	return wire.Header{Type: wire.TypePut, SrcNid: src, DstNid: dst, Length: uint32(n)}
}

func TestHeaderTimingSingleHop(t *testing.T) {
	p := model.Defaults()
	tf, pt, b := pairFabric(t, p)
	m := pt.NewMessage(putHeader(0, 1, 0), 0, 1, nil)
	pt.SendHeader(m)
	tf.k.Run()
	// inject 60ns + 64B@2.5GB/s (25.6ns) + hop 55ns + eject 60ns = 200.6ns
	want := 2*p.InjectLatency + sim.BytesAt(64, p.LinkBps) + p.HopLatency
	if len(b.times) != 1 || b.times[0] != want {
		t.Errorf("header arrived at %v, want %v", b.times, want)
	}
	if d := tf.cl.StatsSum().Delivered; d != 1 {
		t.Errorf("delivered = %d", d)
	}
}

func TestPayloadDeliveredInOrderWithRealBytes(t *testing.T) {
	p := model.Defaults()
	tf, pt, b := pairFabric(t, p)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m := pt.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	sendAll(pt, m, payload, p.ChunkBytes)
	tf.k.Run()
	if !bytes.Equal(b.buf, payload) {
		t.Fatalf("payload mangled: got %d bytes, want %d", len(b.buf), len(payload))
	}
	if b.arrivals[0].kind != "hdr" {
		t.Error("header must arrive before payload")
	}
	lastOff := -1
	for _, a := range b.arrivals[1:] {
		if a.off <= lastOff {
			t.Fatalf("chunks out of order: %v", b.arrivals)
		}
		lastOff = a.off
	}
	if got := wire.CRC32(&m.Hdr, b.buf); got != m.CRC {
		t.Errorf("end-to-end CRC mismatch on clean transfer: %#x vs %#x", got, m.CRC)
	}
}

func TestInlinePayloadRidesHeaderPacket(t *testing.T) {
	p := model.Defaults()
	tf, pt, b := pairFabric(t, p)
	payload := []byte("hello twelve") // exactly 12 bytes
	m := pt.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	if m.PayloadLen != 0 || m.Hdr.InlineLen != 12 {
		t.Fatalf("12-byte put should be fully inline, got payloadLen=%d inline=%d", m.PayloadLen, m.Hdr.InlineLen)
	}
	pt.SendHeader(m)
	tf.k.Run()
	if !bytes.Equal(b.buf, payload) {
		t.Errorf("inline payload mangled: %q", b.buf)
	}
	if c := tf.cl.StatsSum().Chunks; c != 0 {
		t.Errorf("inline message used %d chunks, want 0", c)
	}
}

func TestThirteenBytesDoesNotInline(t *testing.T) {
	_, pt, _ := pairFabric(t, model.Defaults())
	m := pt.NewMessage(putHeader(0, 1, 13), 0, 1, make([]byte, 13))
	if m.Hdr.InlineLen != 0 || m.PayloadLen != 13 {
		t.Errorf("13-byte put must not inline (inline=%d payload=%d)", m.Hdr.InlineLen, m.PayloadLen)
	}
}

func TestGetRequestNeverInlines(t *testing.T) {
	_, pt, _ := pairFabric(t, model.Defaults())
	h := wire.Header{Type: wire.TypeGet, Length: 8}
	m := pt.NewMessage(h, 0, 1, nil)
	if m.Hdr.InlineLen != 0 {
		t.Error("get requests carry no inline data")
	}
}

func TestBackpressureStallsSender(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	k := sim.NewKernel(1, MinHandoffLatency(&p))
	s := k.Lane(0)
	cl := NewCluster(k, tp, &p, func(topo.NodeID) int { return 0 })
	a := &timedEP{fakeEP: newFakeEP(s, 1<<20, true), s: s}
	// Receiver window: room for the header plus one 100-byte chunk only.
	b := &timedEP{fakeEP: newFakeEP(s, int64(wire.PacketBytes)+100, false), s: s}
	pt := cl.Port(0)
	pt.Attach(a)
	cl.Port(1).Attach(b)

	m := pt.NewMessage(putHeader(0, 1, 200), 0, 1, make([]byte, 200))
	pt.SendHeader(m)
	pt.SendChunk(&Chunk{Msg: m, Off: 0, Data: make([]byte, 100)})
	pt.SendChunk(&Chunk{Msg: m, Off: 100, Data: make([]byte, 100), Last: true})
	// Drain nothing until 10us; the second chunk must wait for credits.
	s.After(10*sim.Microsecond, func() { b.win.Put(int64(wire.PacketBytes) + 100) })
	k.Run()
	if len(b.times) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(b.times))
	}
	if b.times[1] >= 10*sim.Microsecond {
		t.Errorf("first chunk should arrive before the drain, at %v", b.times[1])
	}
	if b.times[2] < 10*sim.Microsecond {
		t.Errorf("second chunk arrived at %v despite full RX window", b.times[2])
	}
	if b.win.Waits == 0 {
		t.Error("expected a backpressure wait")
	}
}

func TestLinkRetriesSlowTransferAndCount(t *testing.T) {
	clean := model.Defaults()
	dirty := model.Defaults()
	dirty.LinkBitErrorRate = 0.02 // per 64B packet

	run := func(p model.Params) (sim.Time, uint64) {
		tf, pt, b := pairFabric(t, p)
		payload := make([]byte, 64<<10)
		m := pt.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
		sendAll(pt, m, payload, p.ChunkBytes)
		tf.k.Run()
		return b.times[len(b.times)-1], tf.cl.StatsSum().LinkRetries
	}
	tClean, rClean := run(clean)
	tDirty, rDirty := run(dirty)
	if rClean != 0 {
		t.Errorf("clean link retried %d times", rClean)
	}
	if rDirty == 0 {
		t.Error("dirty link never retried")
	}
	if tDirty <= tClean {
		t.Errorf("retries should slow the transfer: %v <= %v", tDirty, tClean)
	}
}

func TestEndToEndCorruptionDetectedByCRC32(t *testing.T) {
	p := model.Defaults()
	p.Faults = []model.FaultRule{model.NewFault(model.FaultCorrupt, model.FrameData, 1).WithCount(1)}
	tf, pt, b := pairFabric(t, p)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	m := pt.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	sendAll(pt, m, payload, p.ChunkBytes)
	tf.k.Run()
	if got := wire.CRC32(&m.Hdr, b.buf); got == m.CRC {
		t.Error("corruption was injected but CRC-32 still matches")
	}
	if fs, _ := tf.cl.FaultSnapshot(); fs.Corrupts != 1 || fs.Injected() != 0 {
		t.Errorf("fault ledger %v: want corrupts=1 and no ledger entry", fs)
	}
}

// orderEP records the source and delivery time of each header; its
// receive window is returned only by the test.
type orderEP struct {
	s    *sim.Sim
	win  *sim.Credits
	srcs []topo.NodeID
	at   []sim.Time
}

func (e *orderEP) HeaderArrived(m *Message) {
	e.srcs = append(e.srcs, m.Src)
	e.at = append(e.at, e.s.Now())
}

func (e *orderEP) ChunkArrived(*Chunk)    {}
func (e *orderEP) RxWindow() *sim.Credits { return e.win }

// TestRxWindowAdmission: a header that waits for the destination's RX
// window with more traffic queued behind it is delivered at its grant; one
// that waits alone is delivered one unloaded path latency after its grant;
// and a later header granted over a shorter path is held behind that
// promise rather than overtaking it.
func TestRxWindowAdmission(t *testing.T) {
	p := model.Defaults()
	tp, err := topo.New(3, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1, MinHandoffLatency(&p))
	s := k.Lane(0)
	cl := NewCluster(k, tp, &p, func(topo.NodeID) int { return 0 })
	for id := topo.NodeID(0); id < 2; id++ {
		cl.Port(id).Attach(newFakeEP(s, 1<<20, true))
	}
	ep := &orderEP{s: s, win: sim.NewCredits(s, "rxwin", wire.PacketBytes)}
	cl.Port(2).Attach(ep)

	far, near := cl.Port(0), cl.Port(1)
	l2 := far.pathLatency(wire.PacketBytes, 2)
	l1 := near.pathLatency(wire.PacketBytes, 1)
	const (
		t1  = 10 * sim.Microsecond
		t2  = 20 * sim.Microsecond
		eps = 10 * sim.Nanosecond
	)
	// Node 0 sends three headers: the first fills the one-packet window,
	// the second and third wait. Each release returns one packet of space.
	for i := 0; i < 3; i++ {
		far.SendHeader(far.NewMessage(putHeader(0, 2, 0), 0, 2, nil))
	}
	s.At(t1, func() { ep.win.Put(wire.PacketBytes) })
	s.At(t2, func() { ep.win.Put(wire.PacketBytes) })
	// Node 1's header lands just after the second release, waits alone,
	// and is granted right away.
	s.At(t2+eps-l1, func() { near.SendHeader(near.NewMessage(putHeader(1, 2, 0), 1, 2, nil)) })
	s.At(t2+2*eps, func() { ep.win.Put(wire.PacketBytes) })
	k.Run()

	if want := []topo.NodeID{0, 0, 0, 1}; fmt.Sprint(ep.srcs) != fmt.Sprint(want) {
		t.Fatalf("delivery order by source %v, want %v", ep.srcs, want)
	}
	if ep.at[0] != l2 {
		t.Errorf("unblocked header delivered at %v, want its arrival %v", ep.at[0], l2)
	}
	if ep.at[1] != t1 {
		t.Errorf("header with a backlog behind it delivered at %v, want its grant %v", ep.at[1], t1)
	}
	if want := t2 + l2; ep.at[2] != want {
		t.Errorf("lone waiting header delivered at %v, want grant + path latency %v", ep.at[2], want)
	}
	// Alone, the one-hop header would land at t2+2eps+l1, before the
	// two-hop one; it is held to the earlier promise instead.
	if ep.at[3] != ep.at[2] || t2+2*eps+l1 >= ep.at[2] {
		t.Errorf("one-hop header delivered at %v (unheld %v), want held to %v", ep.at[3], t2+2*eps+l1, ep.at[2])
	}
}

func TestMultiHopTiming(t *testing.T) {
	p := model.Defaults()
	tf := newTestFabric(t, p, 4)
	pt := tf.cl.Port(0)
	m := pt.NewMessage(putHeader(0, 3, 0), 0, 3, nil)
	pt.SendHeader(m)
	tf.k.Run()
	hops := sim.Time(3)
	want := 2*p.InjectLatency + hops*(sim.BytesAt(64, p.LinkBps)+p.HopLatency)
	if tf.eps[3].times[0] != want {
		t.Errorf("3-hop header arrived at %v, want %v", tf.eps[3].times[0], want)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	tf := newTestFabric(t, model.Defaults(), 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double attach")
		}
	}()
	tf.cl.Port(0).Attach(newFakeEP(tf.s, 1, true))
}

func TestLinkUtilizationReported(t *testing.T) {
	tf, pt, _ := pairFabric(t, model.Defaults())
	m := pt.NewMessage(putHeader(0, 1, 0), 0, 1, nil)
	pt.SendHeader(m)
	tf.k.Run()
	if u := tf.cl.LaneFabric(0).LinkUtilization(0, topo.Dir{Axis: topo.X, Sign: 1}); u <= 0 {
		t.Errorf("used link reports zero utilization")
	}
	if u := tf.cl.LaneFabric(0).LinkUtilization(1, topo.Dir{Axis: topo.X, Sign: 1}); u != 0 {
		t.Errorf("unused link reports nonzero utilization %v", u)
	}
}

func TestRetryRateTracksBitErrorRate(t *testing.T) {
	// The per-packet retry probability should produce retries in rough
	// proportion to packets × BER over a large transfer.
	p := model.Defaults()
	p.LinkBitErrorRate = 0.01
	tf, pt, _ := pairFabric(t, p)
	payload := make([]byte, 1<<20)
	m := pt.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	sendAll(pt, m, payload, p.ChunkBytes)
	tf.k.Run()
	packets := float64(len(payload)) / 64
	expect := packets * p.LinkBitErrorRate
	got := float64(tf.cl.StatsSum().LinkRetries)
	if got < expect/2 || got > expect*2 {
		t.Errorf("retries = %.0f, expected around %.0f for %0.f packets at BER %v",
			got, expect, packets, p.LinkBitErrorRate)
	}
}
