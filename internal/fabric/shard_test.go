package fabric

import (
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// The cross-shard pool-handoff audit (PR 1 object pools under the sharded
// kernel): a carrier allocated on lane A and consumed on lane B is freed
// into B's pool — never written back into A's freelist — and B's next
// sender reuses it. A two-node ping-pong over two lanes migrates one chunk
// and one message carrier back and forth; if the ownership rule holds, the
// whole exchange runs on exactly one of each.

// handoffEP is a receiver that consumes and recycles carriers through its
// own node's port, then answers with a message of its own.
type handoffEP struct {
	cl      *Cluster
	node    topo.NodeID
	peer    topo.NodeID
	win     *sim.Credits
	rounds  *int
	seen    map[*Chunk]bool
	seenMsg map[*Message]bool
	deliv   *int
}

func (e *handoffEP) RxWindow() *sim.Credits { return e.win }

func (e *handoffEP) HeaderArrived(m *Message) {
	e.seenMsg[m] = true
	e.win.Put(int64(wire.PacketBytes))
}

func (e *handoffEP) ChunkArrived(c *Chunk) {
	e.seen[c] = true
	e.win.Put(int64(len(c.Data)))
	m, last := c.Msg, c.Last
	pt := e.cl.Port(e.node)
	pt.RecycleChunk(c) // frees into e.node's lane — the rule under test
	if !last {
		return
	}
	pt.RecycleMsg(m)
	*e.deliv++
	if *e.rounds > 0 {
		*e.rounds--
		handoffSend(e.cl, e.node, e.peer)
	}
}

// handoffSend injects one header plus one payload chunk from src to dst,
// drawing both carriers from src's lane pool.
func handoffSend(cl *Cluster, src, dst topo.NodeID) {
	const n = 512
	pt := cl.Port(src)
	m := pt.NewStream(putHeader(uint32(src), uint32(dst), n), src, dst, n)
	pt.SendHeader(m)
	c := pt.AllocChunk(n)
	c.Msg = m
	c.Off = 0
	c.Last = true
	pt.SendChunk(c)
}

func TestClusterPoolHandoff(t *testing.T) {
	p := model.Defaults()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(2, MinHandoffLatency(&p))
	cl := NewCluster(k, tp, &p, func(id topo.NodeID) int { return int(id) })

	rounds, deliv := 8, 0
	seen := map[*Chunk]bool{}
	seenMsg := map[*Message]bool{}
	for id := 0; id < 2; id++ {
		id := topo.NodeID(id)
		lane := cl.Lane(id)
		cl.Port(id).Attach(&handoffEP{
			cl: cl, node: id, peer: 1 - id,
			win:    sim.NewCredits(k.Lane(lane), "rxwin", 1<<20),
			rounds: &rounds, seen: seen, seenMsg: seenMsg, deliv: &deliv,
		})
	}
	k.Lane(0).At(0, func() { handoffSend(cl, 0, 1) })
	k.Run()

	if deliv != 9 { // the opening send plus eight replies
		t.Fatalf("deliveries = %d, want 9", deliv)
	}
	// Reuse across shards: every round drew its carriers from the pool the
	// previous receiver freed into, so one of each ever existed.
	if len(seen) != 1 {
		t.Errorf("distinct chunk carriers = %d, want 1 (cross-shard recycled carrier not reused)", len(seen))
	}
	if len(seenMsg) != 1 {
		t.Errorf("distinct message carriers = %d, want 1 (cross-shard recycled carrier not reused)", len(seenMsg))
	}
	// Ownership: the final delivery landed at node 1 (odd count, alternating
	// sides), so its carriers rest in lane 1's freelists and lane 0's — which
	// the final receiver must never have written — stay empty.
	l0, l1 := cl.lanes[0], cl.lanes[1]
	if l0.chunks.Len() != 0 || l0.msgs.Len() != 0 {
		t.Errorf("lane 0 pools = %d chunks, %d msgs; want empty (carrier freed cross-lane?)",
			l0.chunks.Len(), l0.msgs.Len())
	}
	if l1.chunks.Len() != 1 || l1.msgs.Len() != 1 {
		t.Errorf("lane 1 pools = %d chunks, %d msgs; want 1 and 1",
			l1.chunks.Len(), l1.msgs.Len())
	}
}
