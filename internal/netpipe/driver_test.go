package netpipe

import (
	"fmt"
	"sync/atomic"
	"testing"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 5, 64} {
			hits := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	ForEach(4, 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

// TestForEachRecoversProcessPanic: a panic inside a simulated process on a
// one-lane machine unwinds to the caller of Run, so it reaches ForEach's
// recover and the caller, instead of killing the program.
func TestForEachRecoversProcessPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom in process" {
			t.Errorf("recovered %v, want the process's panic", r)
		}
	}()
	ForEach(2, 2, func(i int) {
		m := machine.NewPair(model.Defaults())
		defer m.Close()
		if _, err := m.Spawn(0, "faulty", machine.Generic, func(app *machine.App) {
			app.Proc.Sleep(sim.Microsecond)
			if i == 1 {
				panic("boom in process")
			}
		}); err != nil {
			t.Error(err)
		}
		m.Run()
	})
}

func TestRunConcurrentPreservesInputOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 20; i++ {
		i := i
		jobs = append(jobs, func() Result { return Result{Series: fmt.Sprintf("job%d", i)} })
	}
	out := RunConcurrent(4, jobs)
	for i, r := range out {
		if want := fmt.Sprintf("job%d", i); r.Series != want {
			t.Errorf("slot %d holds %q, want %q", i, r.Series, want)
		}
	}
}

// TestParallelRunsMatchSequentialBitForBit: the same (op, pattern, config)
// sweep must produce identical points — and drive the identical number of
// simulator events — whether its machine runs alone on the caller's
// goroutine or interleaved with three other machines on the worker pool.
func TestParallelRunsMatchSequentialBitForBit(t *testing.T) {
	p := model.Defaults()
	cfg := DefaultConfig()
	cfg.MaxBytes = 4 << 10

	run := func(op Op) (Result, uint64) {
		c := cfg
		var m *machine.Machine
		c.Observe = func(mm *machine.Machine) { m = mm }
		r := RunPortals(p, op, PingPong, c)
		return r, m.S.Fired
	}

	seqPut, seqPutFired := run(OpPut)
	seqGet, seqGetFired := run(OpGet)

	results := make([]Result, 4)
	fired := make([]uint64, 4)
	ops := []Op{OpPut, OpGet, OpPut, OpGet}
	ForEach(4, 4, func(i int) {
		results[i], fired[i] = run(ops[i])
	})

	check := func(i int, want Result, wantFired uint64) {
		t.Helper()
		got := results[i]
		if fired[i] != wantFired {
			t.Errorf("arm %d: Sim.Fired = %d parallel vs %d sequential", i, fired[i], wantFired)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("arm %d: %d points vs %d", i, len(got.Points), len(want.Points))
		}
		for j := range want.Points {
			if got.Points[j] != want.Points[j] {
				t.Errorf("arm %d point %d: %+v vs %+v", i, j, got.Points[j], want.Points[j])
			}
		}
	}
	check(0, seqPut, seqPutFired)
	check(1, seqGet, seqGetFired)
	check(2, seqPut, seqPutFired)
	check(3, seqGet, seqGetFired)
}

func TestPayloadPatternMatchesNetPIPEFill(t *testing.T) {
	got := payloadPattern(300)
	if len(got) != 300 {
		t.Fatalf("len = %d", len(got))
	}
	for i, b := range got {
		if b != byte(i*11) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, byte(i*11))
		}
	}
	// Growing must not disturb previously handed-out prefixes.
	big := payloadPattern(5000)
	for i := range got {
		if big[i] != got[i] {
			t.Fatalf("grow rewrote byte %d", i)
		}
	}
}
