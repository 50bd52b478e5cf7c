package machine

import (
	"bytes"
	"testing"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// runScheduledStream runs a go-back-n stream of msgs 1 KiB puts from node 0
// to node 3 of a 4-node line under the given fault schedule, on a sharded
// machine, and returns the concatenated received payloads, the fault-ledger
// snapshot, and the receiver's completion time.
func runScheduledStream(t *testing.T, spec string, shards, msgs int) ([]byte, fabric.FaultStats, sim.Time, *Machine) {
	t.Helper()
	sched, err := model.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	p := model.Defaults()
	p.NumGenericPendings = 32
	p.Schedule = sched
	tp, _ := topo.New(4, 1, 1, false, false, false)
	m := NewSharded(p, tp, shards)
	m.EnableGoBackN()

	var got []byte
	var done sim.Time
	var b *App
	b, _ = m.Spawn(3, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, 4096, core.MDOpPut|core.MDManageRemote)
		for n := 0; n < msgs; n++ {
			ev := waitFor(t, app, eq, core.EventPutEnd)
			if ev.NIFail {
				t.Error("NIFail under recoverable scheduled faults")
			}
			data := make([]byte, ev.MLength)
			buf.ReadAt(0, data)
			got = append(got, data...)
		}
		done = app.Proc.Now()
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(64)
		for i := 0; i < msgs; i++ {
			src := app.Alloc(1024)
			src.WriteAt(0, bytes.Repeat([]byte{byte(i + 1)}, 1024))
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
			app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
			waitFor(t, app, eq, core.EventSendEnd)
		}
	})
	m.Run()
	if len(got) != msgs*1024 {
		t.Fatalf("shards=%d: received %d bytes, want %d", shards, len(got), msgs*1024)
	}
	st, ok := m.FaultSnapshot()
	if !ok {
		t.Fatalf("shards=%d: no fault plane despite a schedule", shards)
	}
	return got, st, done, m
}

func TestScheduledFaultsOnShardedMachine(t *testing.T) {
	// Link outages, node stalls and a firmware restart declared in
	// Params.Schedule, run on sharded machines. Go-back-n must recover every scheduled blackout, the
	// ledger must balance at quiescence, and every shard count must agree
	// bit-for-bit on payloads, fault counters and completion time.
	const spec = "linkdown:1:X+:150us:100us,stall:3:400us:80us,restart:2:600us:50us"
	type outcome struct {
		got  []byte
		st   fabric.FaultStats
		done sim.Time
	}
	var ref outcome
	for i, shards := range []int{1, 2, 4} {
		got, st, done, m := runScheduledStream(t, spec, shards, 24)
		if st.Injected() == 0 {
			t.Errorf("shards=%d: schedule injected no faults (windows missed the stream?)", shards)
		}
		if st.Open() != 0 {
			t.Errorf("shards=%d: ledger imbalance at quiescence: %v", shards, st)
		}
		for _, r := range m.Reports() {
			t.Errorf("shards=%d: unexpected failure report: %s", shards, r.Kind)
		}
		if i == 0 {
			ref = outcome{got, st, done}
			continue
		}
		if !bytes.Equal(got, ref.got) {
			t.Errorf("shards=%d: payloads diverge from shards=1", shards)
		}
		if st != ref.st {
			t.Errorf("shards=%d: fault stats diverge: %v vs %v", shards, st, ref.st)
		}
		if done != ref.done {
			t.Errorf("shards=%d: completion time diverges: %v vs %v", shards, done, ref.done)
		}
	}
}

func TestScheduleValidatedAtConstruction(t *testing.T) {
	// A schedule referencing a link the topology does not have must panic at
	// machine construction, before any virtual time has passed.
	defer func() {
		if recover() == nil {
			t.Error("invalid schedule did not panic at construction")
		}
	}()
	p := model.Defaults()
	p.Schedule, _ = model.ParseSchedule("linkdown:0:Y+:100us:50us")
	tp, _ := topo.New(2, 1, 1, false, false, false)
	NewSharded(p, tp, 1)
}

func TestLinkMeterFinalWindowWithoutSampler(t *testing.T) {
	// Telemetry enabled but no sampler: the only utilization window is the
	// one Machine.Run flushes at quiescence. It must end when the link went
	// idle (Server.BusyUntil), not at quiesce time, and report the busy
	// fraction undiluted by the drain tail — nonzero for any used link.
	m := NewPair(model.Defaults())
	m.EnableTelemetry()
	onePut(t, m, make([]byte, 256<<10))
	now := m.S.Now()
	found := 0
	for _, s := range m.Telemetry().AllSeries() {
		if s.Name != "fabric_link_utilization" {
			continue
		}
		found++
		if len(s.Samples) == 0 {
			t.Fatalf("series %v has no samples after flush", s.Labels)
		}
		last := s.Samples[len(s.Samples)-1]
		if last.V <= 0 {
			t.Errorf("series %v: final window utilization = %v, want > 0", s.Labels, last.V)
		}
		if last.T >= now {
			t.Errorf("series %v: final window ends at quiesce (%v), want the link-idle instant", s.Labels, last.T)
		}
	}
	if found == 0 {
		t.Fatal("no link utilization series exported (meters not flushed?)")
	}
}

func TestLinkMeterFinalWindowWithSampler(t *testing.T) {
	// With the sampler running, the transfer ends mid-window; before the
	// fix the final window could cover the entire drain and read near-idle.
	// The first hop's meter must report nonzero utilization in its last
	// window, with strictly increasing window ends and no duplicate point
	// from the post-sample flush (Flush is idempotent against the closing
	// sample).
	m := NewPair(model.Defaults())
	m.StartSampler(20 * sim.Microsecond)
	onePut(t, m, make([]byte, 256<<10))
	want := []struct{ Key, Value string }{{"dir", "X+"}, {"node", "0"}}
	var hop *struct {
		T sim.Time
		V float64
	}
	for _, s := range m.Telemetry().AllSeries() {
		if s.Name != "fabric_link_utilization" || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for i, l := range s.Labels {
			if l.Key != want[i].Key || l.Value != want[i].Value {
				match = false
			}
		}
		if !match {
			continue
		}
		if len(s.Samples) < 2 {
			t.Fatalf("first-hop series has %d samples; want periodic windows plus the flushed final one", len(s.Samples))
		}
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i].T <= s.Samples[i-1].T {
				t.Errorf("window ends not strictly increasing: %v then %v", s.Samples[i-1].T, s.Samples[i].T)
			}
		}
		last := s.Samples[len(s.Samples)-1]
		hop = &struct {
			T sim.Time
			V float64
		}{last.T, last.V}
	}
	if hop == nil {
		t.Fatal("no utilization series for the first hop (node 0, X+)")
	}
	if hop.V <= 0 {
		t.Errorf("final window utilization = %v, want > 0 for a transfer ending mid-window", hop.V)
	}
	if hop.T > m.S.Now() {
		t.Errorf("final window ends after quiesce (%v > %v)", hop.T, m.S.Now())
	}
}
