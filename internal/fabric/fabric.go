// Package fabric simulates the XT3's 3D interconnect: the directed links
// between SeaStar routers, dimension-ordered fixed-path routing (in-order
// delivery), 64-byte packetization, per-link CRC-16 retries and the
// receiver-side buffering window that backpressures senders.
//
// The unit of simulated data movement is the chunk — a contiguous span of a
// message's payload (model.Params.ChunkBytes). Chunks carry real bytes.
// A message is one header packet (wire.PacketBytes, containing the encoded
// wire.Header plus up to 12 inline payload bytes) followed by its payload
// chunks, all following the same fixed path, so delivery order matches
// injection order exactly as on the real machine.
//
// The transport is hop by hop (shard.go): each router hop is its own event
// on the lane that owns the router, and every inter-node handoff travels
// through the parallel kernel's mailboxes, so one simulated machine runs
// across any number of event lanes with bit-identical results.
package fabric

import (
	"fmt"

	"portals3/internal/model"
	"portals3/internal/pool"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/trace"
	"portals3/internal/wire"
)

// Endpoint is a NIC attached to the fabric. The fabric calls these methods
// at delivery time, in order; the endpoint owns the receive window whose
// credits pace senders (the RX FIFO of paper §4.3).
type Endpoint interface {
	// HeaderArrived delivers the message's header packet.
	HeaderArrived(m *Message)
	// ChunkArrived delivers payload bytes [c.Off, c.Off+len(c.Data)).
	ChunkArrived(c *Chunk)
	// RxWindow returns the credit pool (in bytes) that bounds data buffered
	// at this endpoint ahead of the RX DMA engine.
	RxWindow() *sim.Credits
}

// Message is one Portals wire message in flight.
type Message struct {
	ID     uint64
	Hdr    wire.Header
	Src    topo.NodeID
	Dst    topo.NodeID
	Inline []byte // ≤ wire.InlineMax bytes riding in the header packet
	CRC    uint32 // end-to-end CRC-32 computed by the sender over header+payload

	// PayloadLen is the number of payload bytes that follow in chunks
	// (excludes inline bytes).
	PayloadLen int

	// FwSeq is the NIC-level go-back-n sequence number (firmware framing,
	// outside the Portals header; zero when the protocol is disabled).
	FwSeq uint32

	// Span is the flight-recorder causal span id, copied from the
	// originating TxReq at header injection (zero when the recorder is
	// off). Unlike Rec it is copied, not moved: a go-back-n retransmission
	// builds a fresh message from the retained request and must carry the
	// same span so the rewind reads as one causal chain.
	Span uint64

	// OnInjected, when set, is called once the header packet enters the
	// wire — the moment the TX state machine considers the packet "sent".
	OnInjected func()

	// Rec is the message's latency-attribution record, carried from the
	// sending NIC to app delivery when telemetry is enabled; nil otherwise.
	// Ownership follows the message: whoever retires the message must
	// finish or reclaim the record.
	Rec *telemetry.MsgRec

	// inlBuf backs Inline so carrying an inline payload never allocates.
	inlBuf [wire.InlineMax]byte
}

func (m *Message) String() string {
	return fmt.Sprintf("msg#%d[%v]", m.ID, &m.Hdr)
}

// Chunk is a span of message payload traversing the network.
type Chunk struct {
	Msg  *Message
	Off  int    // offset within the message payload
	Data []byte // the bytes themselves
	Last bool   // true for the final chunk of the message

	// Corrupt marks end-to-end corruption that slipped past the link CRCs
	// (injected by a model.FaultCorrupt rule); the receiver's CRC-32 check
	// catches it.
	Corrupt bool

	// OnInjected, when set, is called once the chunk enters the wire; the
	// TX state machine uses it to recycle transmit FIFO space.
	OnInjected func()
}

// Stats aggregates fabric-wide counters.
type Stats struct {
	Messages    uint64 // messages injected
	Chunks      uint64 // payload chunks injected
	LinkRetries uint64 // link-level CRC-16 retransmissions
	Delivered   uint64 // messages whose final byte arrived
}

type linkKey struct {
	node topo.NodeID
	dir  topo.Dir
}

// Fabric is one event lane's share of the interconnect: the serial link
// servers leaving the lane's routers, the carrier pools, the counters and
// the observer handles. Only events on the lane touch it.
type Fabric struct {
	S    *sim.Sim
	Topo *topo.Topology
	P    *model.Params

	// Trace, when non-nil, records wire-level message events.
	Trace *trace.Tracer

	// Tel, when non-nil, receives wire-boundary latency stamps and reclaims
	// attribution records of messages that die before delivery.
	Tel *telemetry.Telemetry

	links map[linkKey]*sim.Server

	// Link-contention meters (linkstats.go), live only while Tel is set.
	meters    map[linkKey]*LinkMeter
	meterList []*LinkMeter
	holByHops []*telemetry.Histogram

	// chunks recycles chunk carriers and their payload buffers between
	// messages. A chunk cycles sender → wire → receiver and comes back via
	// RecycleChunk once the receiver has consumed the bytes; pooling keeps
	// the per-chunk data path allocation-free. walkers does the same for
	// the walkers that carry a header or chunk hop by hop, msgs for message
	// carriers (see RecycleMsg for the ownership rule).
	chunks  pool.Pool[Chunk]
	msgs    pool.Pool[Message]
	walkers pool.Pool[walker]

	Stats Stats
}

func newFabric(s *sim.Sim, t *topo.Topology, p *model.Params) *Fabric {
	f := &Fabric{S: s, Topo: t, P: p, links: make(map[linkKey]*sim.Server)}
	f.walkers.New = newWalker
	return f
}

// link returns (creating on first use) the serial resource for the directed
// link leaving node in direction d.
func (f *Fabric) link(node topo.NodeID, d topo.Dir) *sim.Server {
	k := linkKey{node, d}
	if sv, ok := f.links[k]; ok {
		return sv
	}
	sv := sim.NewServer(f.S, fmt.Sprintf("link[%d %v]", node, d))
	f.links[k] = sv
	return sv
}

// AllocChunk returns a chunk carrier with an n-byte data buffer, reusing a
// recycled one when available.
func (f *Fabric) AllocChunk(n int) *Chunk {
	c := f.chunks.Get()
	if cap(c.Data) >= n {
		c.Data = c.Data[:n]
	} else {
		c.Data = make([]byte, n)
	}
	return c
}

// RecycleChunk returns a consumed chunk to the pool. The caller must be done
// with Data — the next sender will overwrite it.
func (f *Fabric) RecycleChunk(c *Chunk) {
	c.Msg = nil
	c.Off = 0
	c.Last = false
	c.Corrupt = false
	c.OnInjected = nil
	f.chunks.Put(c)
}

// RecycleMsg returns a message whose life is over: the receiver calls it
// once every byte is consumed and the receive state released, at which point
// the sender's transmit machinery is long done with it (a go-back-n
// retransmission always builds a fresh message). Messages that die on other
// paths (discards, dead nodes) are simply left to the garbage collector.
func (f *Fabric) RecycleMsg(m *Message) {
	if m.Rec != nil {
		// The message died (or was delivered through a path that does not
		// attribute, e.g. an accelerated receiver) with its record still
		// attached: reclaim it so the pool survives and the incomplete
		// count reflects it.
		f.Tel.DropMsgRec(m.Rec)
	}
	*m = Message{}
	f.msgs.Put(m)
}

// SetInline moves the (small) payload into the header packet: "these 12
// bytes can be copied to the host along with the header" (paper §6).
// It panics beyond wire.InlineMax — callers must honor the hardware limit.
func (m *Message) SetInline(data []byte) {
	if len(data) > wire.InlineMax {
		panic("fabric: inline payload exceeds header packet space")
	}
	m.Inline = m.inlBuf[:len(data)]
	copy(m.Inline, data)
	m.Hdr.InlineLen = uint8(len(data))
	m.PayloadLen = 0
}

// SetCRC stores the sender-computed end-to-end CRC. It must be called
// before the final chunk (or, for chunkless messages, the header) is
// injected so the receiver's check reads the final value.
func (m *Message) SetCRC(crc uint32) { m.CRC = crc }

// LinkUtilization reports the utilization of the directed link leaving node
// in direction d (zero if the link was never used).
func (f *Fabric) LinkUtilization(node topo.NodeID, d topo.Dir) float64 {
	if sv, ok := f.links[linkKey{node, d}]; ok {
		return sv.Utilization()
	}
	return 0
}
