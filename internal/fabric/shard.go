// The hop-by-hop transport that lets one simulated machine run across the
// parallel kernel's event lanes.
//
// Each hop is its own event, executed on the lane that owns the current
// router, and every inter-node handoff travels through the kernel's
// cross-shard mailboxes. The minimum handoff distance — one link occupancy
// plus the per-hop wire latency — is the conservative lookahead bound the
// kernel synchronizes on (MinHandoffLatency).
//
// Node state is partitioned by lane: each lane owns a Fabric instance
// (object pools, link servers, counters, telemetry handle) and each node a
// NodePort, the per-node injection interface the firmware holds. A NodePort
// recycles carriers into the pools of the lane that frees them, so a chunk
// allocated on shard A and released on shard B simply migrates pools — the
// freelists never see cross-shard writes (see the pool-handoff test).
package fabric

import (
	"fmt"
	"math/rand/v2"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/trace"
	"portals3/internal/wire"
)

// MinHandoffLatency is the smallest virtual-time distance of any
// inter-node handoff in the hopwise transport: every hop pays at least one
// link occupancy (> 0) plus HopLatency before the next node is touched, so
// HopLatency is a safe conservative lookahead for the sharded kernel.
func MinHandoffLatency(p *model.Params) sim.Time { return p.HopLatency }

// Cluster is the machine's fabric: one Fabric per lane, one NodePort per
// node, and the endpoint directory shared by all lanes (written only
// during machine assembly, read-only while the kernel runs).
type Cluster struct {
	Kern *sim.Kernel
	Topo *topo.Topology
	P    *model.Params

	laneOf []int
	lanes  []*Fabric
	ports  []*NodePort
	eps    []Endpoint
	faulty bool
}

// nodeSeed derives node id's private PRNG seed from Params.FaultSeed, so
// per-node random decisions do not depend on how nodes interleave within
// a lane.
func nodeSeed(p *model.Params, id topo.NodeID) int64 {
	base := p.FaultSeed
	if base == 0 {
		base = defaultFaultSeed
	}
	return base ^ (int64(id+1) * 0x9e3779b97f4a7c1)
}

// linkSeedSalt separates a node's link-retry stream from its fault-plane
// stream, which share nodeSeed.
const linkSeedSalt = 0x6c696e6b43524332

// NewCluster partitions the topology's nodes over the kernel's lanes.
// laneOf must be a pure function mapping every node to a lane in range.
func NewCluster(kern *sim.Kernel, t *topo.Topology, p *model.Params, laneOf func(topo.NodeID) int) *Cluster {
	n := t.Nodes()
	cl := &Cluster{
		Kern:   kern,
		Topo:   t,
		P:      p,
		laneOf: make([]int, n),
		lanes:  make([]*Fabric, kern.Shards()),
		ports:  make([]*NodePort, n),
		eps:    make([]Endpoint, n),
		faulty: len(p.Faults) > 0 || p.FaultSeed != 0 || len(p.Schedule) > 0,
	}
	for i := range cl.lanes {
		cl.lanes[i] = newFabric(kern.Lane(i), t, p)
	}
	for id := 0; id < n; id++ {
		nid := topo.NodeID(id)
		lane := laneOf(nid)
		if lane < 0 || lane >= kern.Shards() {
			panic(fmt.Sprintf("fabric: node %d mapped to lane %d of %d", id, lane, kern.Shards()))
		}
		cl.laneOf[id] = lane
		pt := &NodePort{cl: cl, node: nid, lane: lane, f: cl.lanes[lane]}
		if cl.faulty {
			// Per-source-node plane: rules are evaluated where injections
			// happen, with a node-private PRNG stream. Rule Count limits
			// consequently apply per source node (documented in DESIGN.md
			// §11).
			pt.plane = newFaultPlane(pt, nodeSeed(p, nid))
		}
		cl.ports[id] = pt
	}
	return cl
}

// Port returns node id's injection interface.
func (cl *Cluster) Port(id topo.NodeID) *NodePort { return cl.ports[id] }

// Plane returns node id's fault plane (nil on a fault-free cluster). The
// machine's schedule application mutates each plane through lane-local
// events on the owning lane's simulator; plane state must never be touched
// from another lane while the kernel runs.
func (cl *Cluster) Plane(id topo.NodeID) *FaultPlane { return cl.ports[id].plane }

// Lane returns the lane index owning node id.
func (cl *Cluster) Lane(id topo.NodeID) int { return cl.laneOf[id] }

// SetTelemetry attaches one lane's telemetry handle (per-lane instances
// keep the hot path lock-free; the machine merges them at snapshot time).
func (cl *Cluster) SetTelemetry(lane int, tel *telemetry.Telemetry) { cl.lanes[lane].Tel = tel }

// SetTrace attaches one lane's tracer; the hopwise transport records wire
// events through it. Like telemetry, per-lane instances are merged — via
// trace.Merged — at snapshot time.
func (cl *Cluster) SetTrace(lane int, tr *trace.Tracer) { cl.lanes[lane].Trace = tr }

// LaneFabric returns lane i's fabric instance (stats, link meters), for
// the machine's lane-local observers.
func (cl *Cluster) LaneFabric(i int) *Fabric { return cl.lanes[i] }

// StatsSum aggregates the per-lane fabric counters. Injection counts land
// on the sender's lane and deliveries on the receiver's, so the sums are
// independent of the partition.
func (cl *Cluster) StatsSum() Stats {
	var out Stats
	for _, f := range cl.lanes {
		out.Messages += f.Stats.Messages
		out.Chunks += f.Stats.Chunks
		out.LinkRetries += f.Stats.LinkRetries
		out.Delivered += f.Stats.Delivered
	}
	return out
}

// FaultSnapshot sums the per-source-node fault ledgers; ok is false when
// the cluster was built without fault configuration.
func (cl *Cluster) FaultSnapshot() (FaultStats, bool) {
	if !cl.faulty {
		return FaultStats{}, false
	}
	var out FaultStats
	for _, pt := range cl.ports {
		s := pt.plane.Stats
		out.DropsData += s.DropsData
		out.DropsFcAck += s.DropsFcAck
		out.DropsFcNack += s.DropsFcNack
		out.DropsLink += s.DropsLink
		out.Dups += s.Dups
		out.Delays += s.Delays
		out.Stalls += s.Stalls
		out.Corrupts += s.Corrupts
		out.Recovered += s.Recovered
		out.Condemned += s.Condemned
	}
	return out, true
}

// NodePort is one node's fabric interface. All its methods run on the
// node's own lane.
type NodePort struct {
	cl   *Cluster
	node topo.NodeID
	lane int
	f    *Fabric // the owning lane's fabric (pools, links, stats, telemetry)

	nextID  uint64 // per-node message ID sequence (IDs are (node+1)<<32 | seq)
	postSeq uint64 // per-node mailbox ordering sequence, shard-invariant

	// rxHold is the latest delivery time already promised at this node's
	// receive window; later arrivals never overtake it (see admit).
	rxHold sim.Time

	linkRNG *rand.Rand  // CRC retry sampling for this router's links; made on first use
	plane   *FaultPlane // per-source-node fault plane, nil when fault-free
}

// Node returns the port's node id.
func (pt *NodePort) Node() topo.NodeID { return pt.node }

// post sends fn through the kernel mailbox to execute on dst's lane at
// time at, ordered by this node's shard-invariant post sequence.
func (pt *NodePort) post(dst *NodePort, at sim.Time, fn func()) {
	pt.postSeq++
	pt.cl.Kern.Post(pt.lane, dst.lane, at, int32(pt.node), pt.postSeq, fn)
}

// allocID mints a node-scoped message ID: a shard-invariant scheme must not
// depend on cross-node injection interleaving, so IDs embed the source
// node.
func (pt *NodePort) allocID() uint64 {
	pt.nextID++
	return uint64(uint32(pt.node)+1)<<32 | pt.nextID
}

// Attach registers the node's endpoint in the cluster directory.
// Attaching twice panics: it is a machine-assembly bug.
func (pt *NodePort) Attach(ep Endpoint) {
	if pt.cl.eps[pt.node] != nil {
		panic(fmt.Sprintf("fabric: node %d attached twice", pt.node))
	}
	pt.cl.eps[pt.node] = ep
}

// NewStream allocates a message whose payload will be produced
// incrementally by a TX DMA engine: no CRC is computed here (the sender
// accumulates it while reading chunks and stores it with SetCRC before the
// final chunk is injected) and inlining is the sender's explicit decision
// via SetInline.
func (pt *NodePort) NewStream(hdr wire.Header, src, dst topo.NodeID, payloadLen int) *Message {
	m := pt.f.msgs.Get()
	m.ID = pt.allocID()
	m.Hdr = hdr
	m.Src = src
	m.Dst = dst
	m.PayloadLen = payloadLen
	return m
}

// NewMessage allocates a message with the end-to-end CRC computed over the
// full payload, inlining payloads of at most Params.InlineDataMax bytes
// (never for get requests or acks). The payload is only read for the CRC
// and the inline copy; the rest travels in chunks the caller injects.
func (pt *NodePort) NewMessage(hdr wire.Header, src, dst topo.NodeID, payload []byte) *Message {
	m := pt.NewStream(hdr, src, dst, len(payload))
	if len(payload) <= pt.f.P.InlineDataMax && hdr.Type != wire.TypeGet && hdr.Type != wire.TypeAck {
		m.SetInline(payload)
	}
	m.CRC = wire.CRC32(&m.Hdr, payload) // InlineLen is part of the header
	return m
}

// AllocChunk takes a carrier from the current lane's pool.
func (pt *NodePort) AllocChunk(n int) *Chunk { return pt.f.AllocChunk(n) }

// RecycleChunk returns a carrier to the current lane's pool — the sharded
// return path: a consumer frees into its own lane, never across shards.
func (pt *NodePort) RecycleChunk(c *Chunk) { pt.f.RecycleChunk(c) }

// RecycleMsg returns a message to the current lane's pool (see
// RecycleChunk for the cross-shard rule).
func (pt *NodePort) RecycleMsg(m *Message) { pt.f.RecycleMsg(m) }

// SendHeader injects a message's header packet. Its payload chunks must
// follow in order through SendChunk; all of them take the same fixed path.
func (pt *NodePort) SendHeader(m *Message) {
	if pt.cl.eps[m.Dst] == nil {
		panic(fmt.Sprintf("fabric: no endpoint at node %d", m.Dst))
	}
	pt.f.Stats.Messages++
	if pt.plane != nil && pt.plane.filterHeader(m) {
		return
	}
	pt.launchHeader(m)
}

// SendChunk injects payload bytes.
func (pt *NodePort) SendChunk(c *Chunk) {
	if pt.cl.eps[c.Msg.Dst] == nil {
		panic(fmt.Sprintf("fabric: no endpoint at node %d", c.Msg.Dst))
	}
	pt.f.Stats.Chunks++
	if pt.plane != nil && pt.plane.filterChunk(c) {
		return
	}
	pt.launchChunk(c)
}

// launchHeader starts a header's hop walk from the source node. The TX
// machine considers the packet sent at injection (stamp + OnInjected);
// receive-window credits are charged on the destination lane at arrival,
// so flow control is destination-side admission (see admit).
func (pt *NodePort) launchHeader(m *Message) {
	now := pt.f.S.Now()
	if m.Rec != nil {
		m.Rec.Stamp(telemetry.StampWire, now)
		m.Rec.SetHops(pt.f.Topo.Hops(m.Src, m.Dst))
	}
	if m.OnInjected != nil {
		m.OnInjected()
	}
	if pt.f.Trace.Enabled() {
		pt.f.Trace.Instant(int(m.Src), trace.TrackWire, "net", "tx "+m.Hdr.Type.String(), now,
			map[string]interface{}{"msg": m.ID, "dst": m.Dst, "len": m.PayloadLen + len(m.Inline)})
	}
	pt.launch(m, nil, int64(pt.f.P.PacketBytes))
}

// launchChunk starts a payload chunk's hop walk (see launchHeader).
func (pt *NodePort) launchChunk(c *Chunk) {
	if c.OnInjected != nil {
		c.OnInjected()
	}
	pt.launch(c.Msg, c, int64(len(c.Data)))
}

// launch hands a header (c nil) or chunk to a pooled walker at the source.
func (pt *NodePort) launch(m *Message, c *Chunk, nbytes int64) {
	w := pt.f.walkers.Get()
	w.pt, w.m, w.c, w.nbytes = pt, m, c, nbytes
	w.hops = pt.f.Topo.Hops(m.Src, m.Dst)
	now := pt.f.S.Now()
	if w.hops == 0 {
		// Loopback still pays NIC injection + ejection, entirely on-lane.
		pt.f.S.At(now+2*pt.f.P.InjectLatency, w.arriveFn)
		return
	}
	w.t = now + pt.f.P.InjectLatency
	w.step()
}

// walker carries one header packet or payload chunk along its fixed path:
// a link reservation at each router, a mailbox handoff to the next, and
// admission into the destination's receive window. Its callbacks are bound
// once and it is recycled into the delivering lane's pool, so a hop
// allocates nothing.
type walker struct {
	pt     *NodePort // the node currently holding the walker
	m      *Message
	c      *Chunk   // nil for a header packet
	t      sim.Time // arrival time at pt's router
	nbytes int64
	hops   int

	stepFn, arriveFn, admitFn, deliverFn func()
}

func newWalker() *walker {
	w := &walker{}
	w.stepFn, w.arriveFn, w.admitFn, w.deliverFn = w.step, w.arrive, w.admit, w.deliver
	return w
}

// step executes the walk at the current node: reserve the outgoing link,
// then hand the walker to the next router through the mailbox.
func (w *walker) step() {
	pt := w.pt
	next, t2 := pt.hop(w.m.Dst, w.t, w.nbytes, w.hops)
	np := pt.cl.ports[next]
	w.pt = np // the walker is untouched until the next window applies the post
	if next == w.m.Dst {
		pt.post(np, t2+pt.f.P.InjectLatency, w.arriveFn)
		return
	}
	w.t = t2
	pt.post(np, t2, w.stepFn)
}

// hop reserves this node's outgoing link toward dst for nbytes arriving at
// time t and returns the neighbor plus the arrival time there. Links are
// owned by the lane of the node they leave, so contention is resolved in
// local event order — per-hop, as on the real router.
func (pt *NodePort) hop(dst topo.NodeID, t sim.Time, nbytes int64, hops int) (topo.NodeID, sim.Time) {
	f := pt.f
	d, ok := f.Topo.NextHop(pt.node, dst)
	if !ok {
		panic("fabric: hop walk already at destination")
	}
	occupancy := sim.BytesAt(nbytes, f.P.LinkBps)
	if f.P.LinkBitErrorRate > 0 {
		k := pt.transmissions(nbytes)
		occupancy = sim.Time(k)*occupancy + sim.Time(k-1)*f.P.LinkRetryDelay
	}
	t2 := f.linkReserve(pt.node, d, t, occupancy, hops) + f.P.HopLatency
	next, ok := f.Topo.Neighbor(pt.node, d)
	if !ok {
		panic("fabric: route fell off the mesh")
	}
	return next, t2
}

// transmissions samples how many times a packet group of nbytes must cross
// one of this router's links before the 16-bit link CRC passes (paper §2).
func (pt *NodePort) transmissions(nbytes int64) int {
	p := pt.f.P
	packets := (int(nbytes) + p.PacketBytes - 1) / p.PacketBytes
	pOK := 1.0
	for i := 0; i < packets; i++ {
		pOK *= 1 - p.LinkBitErrorRate
	}
	if pt.linkRNG == nil {
		// The node owns the links leaving its router, so it samples their
		// CRC retries from its own stream. The seed is the fault plane's,
		// salted so the two streams are independent.
		pt.linkRNG = rand.New(rand.NewPCG(uint64(nodeSeed(p, pt.node)), linkSeedSalt))
	}
	n := 1
	for pt.linkRNG.Float64() > pOK {
		n++
		pt.f.Stats.LinkRetries++
		if n > 64 {
			break // a link this sick would be routed around by RAS; cap it
		}
	}
	return n
}

// arrive runs on the destination lane when the walker reaches the NIC:
// charge the receive window.
func (w *walker) arrive() {
	pt := w.pt
	w.t = pt.f.S.Now()
	pt.cl.eps[pt.node].RxWindow().Take(w.nbytes, w.admitFn)
}

// admit runs once the receive window grants the walker's credits. A grant
// at arrival delivers at once. So does a grant to a walker with more
// traffic queued behind it: the freed space is refilled from the backlog
// the network already holds next to the NIC. A walker that waited with no
// backlog behind it models a stream whose link-level flow control held it
// back until the receiver's FIFO drained: the pipeline must refill, so it
// is delivered one unloaded path latency after the grant. A short window
// thus throttles a lone stream, and costs nothing while credits are
// available. Deliveries never overtake one already promised, keeping the
// fabric's in-order guarantee.
func (w *walker) admit() {
	pt := w.pt
	f := pt.f
	now := f.S.Now()
	at := now
	if now > w.t && pt.cl.eps[pt.node].RxWindow().Waiting() == 0 {
		at = now + pt.pathLatency(w.nbytes, w.hops)
	}
	if at < pt.rxHold {
		at = pt.rxHold
	}
	if at > now {
		pt.rxHold = at
		f.S.At(at, w.deliverFn)
		return
	}
	w.deliver()
}

// pathLatency is the unloaded injection-to-ejection time of nbytes over
// hops links.
func (pt *NodePort) pathLatency(nbytes int64, hops int) sim.Time {
	p := pt.f.P
	return 2*p.InjectLatency + sim.Time(hops)*(sim.BytesAt(nbytes, p.LinkBps)+p.HopLatency)
}

// deliver hands the header or chunk to the endpoint. The walker returns to
// this lane's pool first, so a reply injected by the endpoint reuses it.
func (w *walker) deliver() {
	pt, m, c := w.pt, w.m, w.c
	w.pt, w.m, w.c = nil, nil, nil
	f := pt.f
	f.walkers.Put(w)
	ep := pt.cl.eps[pt.node]
	if c == nil {
		m.Rec.Stamp(telemetry.StampRxHdr, f.S.Now())
		if pt.cl.faulty {
			pt.noteToSource(m, (*FaultPlane).noteDelivered)
		}
		if f.Trace.Enabled() {
			f.Trace.Instant(int(m.Dst), trace.TrackWire, "net", "rx hdr "+m.Hdr.Type.String(), f.S.Now(),
				map[string]interface{}{"msg": m.ID, "src": m.Src})
		}
		ep.HeaderArrived(m)
		if m.PayloadLen == 0 {
			f.Stats.Delivered++
		}
		return
	}
	ep.ChunkArrived(c)
	if c.Last {
		f.Stats.Delivered++
		if f.Trace.Enabled() {
			f.Trace.Instant(int(m.Dst), trace.TrackWire, "net", "rx last chunk", f.S.Now(),
				map[string]interface{}{"msg": m.ID, "src": m.Src})
		}
	}
}

// FaultAccepted forwards the receiver-side commit to the source node's
// fault plane — one hop of latency away, through the mailbox, so the
// ledger lives entirely on the lane that opened its entries.
func (pt *NodePort) FaultAccepted(m *Message) {
	if pt.cl.faulty {
		pt.noteToSource(m, (*FaultPlane).noteAccepted)
	}
}

// FaultCondemned forwards a receiver-side discard to the source plane.
func (pt *NodePort) FaultCondemned(m *Message) {
	if pt.cl.faulty {
		pt.noteToSource(m, (*FaultPlane).noteCondemned)
	}
}

// noteToSource posts a ledger note to the message's source plane. Only
// identity fields travel; the message object itself stays (and may be
// recycled) on the noting lane.
func (pt *NodePort) noteToSource(m *Message, apply func(*FaultPlane, *Message)) {
	sp := pt.cl.ports[m.Src]
	mm := &Message{ID: m.ID, Hdr: m.Hdr, Src: m.Src, Dst: m.Dst, FwSeq: m.FwSeq}
	at := pt.f.S.Now() + pt.cl.Kern.Lookahead()
	if sp == pt {
		pt.f.S.At(at, func() { apply(sp.plane, mm) })
		return
	}
	pt.post(sp, at, func() { apply(sp.plane, mm) })
}
