package machine

import (
	"testing"

	"portals3/internal/model"
	"portals3/internal/topo"
)

// TestNodeSetupFootprint: building a node allocates a bounded handful of
// objects. The firmware's pending pools are charged to SRAM in full at
// registration but their structures are built on first use, so setup does
// not pay for the paper's 1,274 generic pendings per node.
func TestNodeSetupFootprint(t *testing.T) {
	tp, err := topo.New(4, 4, 4, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Defaults()
	allocs := testing.AllocsPerRun(1, func() {
		m := NewSharded(p, tp, 1)
		for id := 0; id < tp.Nodes(); id++ {
			m.Node(topo.NodeID(id))
		}
	})
	if perNode := allocs / float64(tp.Nodes()); perNode > 100 {
		t.Errorf("building a 4x4x4 machine costs %.0f allocations per node, want <= 100", perNode)
	}
}
