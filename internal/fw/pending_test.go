package fw

import (
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
)

// TestRxPendingCapExactUnderPanic: with pendings built on first use, the
// receive pool still serves exactly its SRAM-charged share (half of the
// registered pendings) and the next message panics the node.
func TestRxPendingCapExactUnderPanic(t *testing.T) {
	const pendings, rxCap = 8, 4
	fp := newFwPairAsym(t, model.Defaults(), [2]int{64, pendings}, ExhaustPanic)
	panics := 0
	fp.nics[1].OnPanic = func(string) { panics++ }
	fp.host[1].holdPendings = true
	fp.host[1].releaseAt = sim.Second // effectively never
	for i := 0; i < rxCap; i++ {
		fp.put(0, 1, []byte{byte(i)}, nil)
	}
	fp.k.RunUntil(sim.Millisecond)
	if panics != 0 || len(fp.host[1].recv) != rxCap {
		t.Fatalf("%d panics, %d delivered with %d rx pendings; want 0 and %d", panics, len(fp.host[1].recv), rxCap, rxCap)
	}
	if o := fp.nics[1].Occupancy(); o.RxPendFree != 0 || o.RxPendTotal != rxCap {
		t.Errorf("rx pendings free/total = %d/%d, want 0/%d", o.RxPendFree, o.RxPendTotal, rxCap)
	}
	fp.put(0, 1, []byte("x"), nil)
	fp.k.RunUntil(2 * sim.Millisecond)
	if panics != 1 || fp.nics[1].Stats.Exhaustions != 1 {
		t.Errorf("message %d: %d panics, %d exhaustions; want 1 and 1", rxCap+1, panics, fp.nics[1].Stats.Exhaustions)
	}
}

// TestEarlyReleaseReturnsSlot: a pending released while its discarded
// stream is still draining gives its slot back at once (the structure
// itself keeps draining), so many more such messages than the pool holds
// never exhaust it.
func TestEarlyReleaseReturnsSlot(t *testing.T) {
	const msgs = 6
	fp := newFwPairAsym(t, model.Defaults(), [2]int{64, 4}, ExhaustPanic) // 2 rx pendings
	fp.nics[1].OnPanic = func(reason string) { t.Fatalf("node panicked: %s", reason) }
	fp.nics[1].generic.Handle = func(ev Event) {
		if ev.Kind == EvNewHeader {
			ev.Pending.Discard()
			ev.Pending.Release()
		}
	}
	for i := 0; i < msgs; i++ {
		fp.put(0, 1, make([]byte, 20000), nil)
	}
	fp.k.Run()
	rx := &fp.nics[1].generic.rx
	if d := fp.nics[1].Stats.Discards; d != msgs {
		t.Errorf("Discards = %d, want %d", d, msgs)
	}
	// Every release came before its stream drained, so no structure went
	// back on the list: each slot was returned without its object.
	if rx.Free() != rx.Cap || rx.Len() != 0 {
		t.Errorf("rx pool free %d of %d with %d objects listed; want all slots back and none listed", rx.Free(), rx.Cap, rx.Len())
	}
}

// TestPendingOccupancyMatchesEagerPool: after a burst of five held
// messages the occupancy snapshot reads what the pre-filled pools did —
// free = cap − in use, total = cap, low-water = the burst's deepest point.
func TestPendingOccupancyMatchesEagerPool(t *testing.T) {
	const burst = 5
	fp := newFwPair(t, model.Defaults(), 16, ExhaustPanic) // 8 rx + 8 tx
	fp.host[1].holdPendings = true
	fp.host[1].releaseAt = 100 * sim.Microsecond
	for i := 0; i < burst; i++ {
		fp.put(0, 1, make([]byte, 100), nil)
	}
	if o := fp.nics[0].Occupancy(); o.TxPendFree != 8-burst || o.TxPendTotal != 8 || o.TxPendLow != 8-burst {
		t.Errorf("tx free/total/low = %d/%d/%d after submitting %d, want %d/8/%d",
			o.TxPendFree, o.TxPendTotal, o.TxPendLow, burst, 8-burst, 8-burst)
	}
	fp.k.RunUntil(50 * sim.Microsecond)
	if o := fp.nics[1].Occupancy(); o.RxPendFree != 8-burst || o.RxPendTotal != 8 || o.RxPendLow != 8-burst {
		t.Errorf("rx free/total/low = %d/%d/%d holding %d, want %d/8/%d",
			o.RxPendFree, o.RxPendTotal, o.RxPendLow, burst, 8-burst, 8-burst)
	}
	fp.k.Run()
	tx, rx := fp.nics[0].Occupancy(), fp.nics[1].Occupancy()
	if tx.TxPendFree != 8 || tx.TxPendLow != 8-burst || rx.RxPendFree != 8 || rx.RxPendLow != 8-burst {
		t.Errorf("after the run: tx free/low = %d/%d, rx free/low = %d/%d; want 8/%d both",
			tx.TxPendFree, tx.TxPendLow, rx.RxPendFree, rx.RxPendLow, 8-burst)
	}
}
