package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseReleasesAbandonedSimulators: simulators left at a RunUntil
// horizon with processes parked on a signal, in a sleep, and never started
// hold goroutines until Close unwinds them; unwinding runs their defers.
func TestCloseReleasesAbandonedSimulators(t *testing.T) {
	start := runtime.NumGoroutine()
	unwound := 0
	sims := make([]*Sim, 100)
	for i := range sims {
		s := New()
		sig := NewSignal(s)
		s.Go("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			sig.Wait(p)
		})
		s.Go("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Millisecond)
		})
		s.RunUntil(Microsecond)
		s.Go("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
		sims[i] = s
	}
	if n := runtime.NumGoroutine(); n < start+len(sims) {
		t.Fatalf("%d goroutines with %d parked simulators, started at %d: processes are not goroutine-backed as assumed", n, len(sims), start)
	}
	for _, s := range sims {
		s.Close()
		if len(s.live) != 0 {
			t.Fatalf("%d processes live after Close", len(s.live))
		}
	}
	if unwound != 2*len(sims) {
		t.Errorf("unwound %d process bodies, want %d", unwound, 2*len(sims))
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after Close, started with %d", n, start)
	}
}

// TestKernelDeadlockReleasesProcesses: Kernel.Run unwinds the deadlocked
// processes on every lane before it panics.
func TestKernelDeadlockReleasesProcesses(t *testing.T) {
	start := runtime.NumGoroutine()
	k := NewKernel(2, 100)
	for i := 0; i < 2; i++ {
		s := k.Lane(i)
		sig := NewSignal(s)
		for j := 0; j < 3; j++ {
			s.Go("stuck", func(p *Proc) { sig.Wait(p) })
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected deadlock panic")
			}
		}()
		k.Run()
	}()
	if p := len(k.Lane(0).live) + len(k.Lane(1).live); p != 0 {
		t.Errorf("%d processes live after the deadlock panic", p)
	}
	// The lane workers exit just after Run closes their channels; goroutines
	// of earlier tests may still be exiting at start, hence no equality.
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > start; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Errorf("%d goroutines after the deadlock panic, started with %d", n, start)
	}
}

// TestProcPanicReachesRunCaller: a panic in a process body unwinds through
// the event loop to the caller of Run, with its value intact.
func TestProcPanicReachesRunCaller(t *testing.T) {
	k := NewKernel(1, 100)
	s := k.Lane(0)
	sig := NewSignal(s)
	s.Go("bystander", func(p *Proc) { sig.Wait(p) })
	s.Go("faulty", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		k.Run()
	}()
	if len(s.live) != 1 || s.live[0].Name() != "bystander" {
		t.Fatalf("%d processes live after the panic, want the bystander alone", len(s.live))
	}
	k.Close()
	if len(s.live) != 0 {
		t.Errorf("%d processes live after Close", len(s.live))
	}
}

// TestKernelLanePanicReachesCaller: on a parallel kernel, a panic on a
// worker's lane or on the coordinator's own lane 0 reaches the caller of
// Run once every lane has finished its window, the lowest lane's value
// first, and leaves no lane worker behind.
func TestKernelLanePanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name   string
		faulty []int
		want   string
	}{
		{"lane1", []int{1}, "boom1"},
		{"lane0", []int{0}, "boom0"},
		{"both", []int{0, 1}, "boom0"},
	} {
		start := runtime.NumGoroutine()
		k := NewKernel(2, 100)
		ran := [2]bool{}
		for i := 0; i < 2; i++ {
			k.Lane(i).At(50, func() { ran[i] = true })
		}
		for _, i := range tc.faulty {
			k.Lane(i).Go("faulty", func(p *Proc) {
				p.Sleep(50)
				panic("boom" + string(rune('0'+i)))
			})
		}
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("%s: recovered %v, want %s", tc.name, r, tc.want)
				}
			}()
			k.Run()
		}()
		if !ran[0] || !ran[1] {
			t.Errorf("%s: window events ran = %v; every lane must finish its window", tc.name, ran)
		}
		n := runtime.NumGoroutine()
		for i := 0; i < 200 && n > start; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > start {
			t.Errorf("%s: %d goroutines after the panic, started with %d", tc.name, n, start)
		}
	}
}
