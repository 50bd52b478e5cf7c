package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"portals3/internal/fw.(*NIC).rxHeader", "portals3/internal/sim.(*Sim).step"}, "fw"},
		{[]string{"portals3/internal/sim.(*Sim).heapPush", "portals3/internal/fabric.(*NodePort).hop"}, "sim"},
		// Type arguments may hold dots and slashes.
		{[]string{"portals3/internal/core.find[go.shape.*portals3/internal/core.ME]"}, "core"},
		{[]string{"portals3/internal/nal.(*GenericDriver).Send.func1"}, "nal"},
		{[]string{"portals3/internal/oskernel.(*Kernel).Interrupt"}, "oskernel"},
		{[]string{"portals3/internal/seastar.(*Chip).DMA"}, "seastar"},
		{[]string{"portals3/internal/mpi.(*Comm).Send"}, "mpi"},
		{[]string{"portals3/internal/machine.(*Machine).Node"}, "machine"},
		// Standard-library frames outside the runtime are charged upward.
		{[]string{"sort.insertionSort", "sort.Slice", "portals3/internal/fabric.(*Cluster).drain"}, "fabric"},
		{[]string{"container/heap.up", "portals3/internal/sim.(*Kernel).Post"}, "sim"},
		// Driver: the experiment and netpipe drivers and the benchmark itself.
		{[]string{"portals3/internal/experiments.TorusHalo.func1"}, "driver"},
		{[]string{"portals3/internal/netpipe.RunPortals"}, "driver"},
		{[]string{"main.runFigures.func2"}, "driver"},
		// Program packages without a layer of their own.
		{[]string{"portals3/internal/topo.(*Topology).Neighbor"}, "other"},
		{[]string{"portals3/internal/telemetry.(*Histogram).Observe"}, "other"},
		{[]string{"fmt.Sprintf", "strings.Repeat"}, "other"},
		{nil, "other"},
		// The runtime split.
		{[]string{"runtime.mallocgc", "runtime.newobject", "portals3/internal/fw.(*NIC).post"}, "runtime.other"},
		{[]string{"runtime.memmove", "portals3/internal/core.(*Region).WriteAt"}, "runtime.other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "portals3/internal/fw.(*NIC).post"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.futex", "runtime.futexsleep", "runtime.notesleep",
			"runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.casgstatus", "runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1",
			"portals3/internal/sim.(*Proc).yield"}, "runtime.sched"},
		{[]string{"runtime.lock2", "runtime.lockWithRank", "runtime.lock"}, "runtime.sched"},
		// A GC frame past the runtime segment does not make it GC work.
		{[]string{"runtime.memclrNoHeapPointers", "portals3/internal/fw.New", "runtime.gcBgMarkWorker"}, "runtime.other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAttributeSumsToTotal(t *testing.T) {
	samples := []sample{
		{[]string{"portals3/internal/fw.(*NIC).rx"}, 30},
		{[]string{"portals3/internal/fw.(*NIC).tx"}, 12},
		{[]string{"runtime.gopark", "portals3/internal/sim.(*Proc).Wait"}, 7},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 5},
		{[]string{"runtime.mallocgc", "portals3/internal/core.New"}, 3},
		{[]string{"portals3/internal/wire.Encode"}, 2},
		{nil, 1},
	}
	got := attribute(samples)
	want := map[string]int64{"fw": 42, "runtime.sched": 7, "runtime.gc": 5, "runtime.other": 3, "other": 3}
	var total, sum int64
	for _, s := range samples {
		total += s.cpuNs
	}
	for _, b := range buckets {
		sum += got[b]
		if got[b] != want[b] {
			t.Errorf("bucket %s = %d, want %d", b, got[b], want[b])
		}
	}
	if len(got) != len(buckets) {
		t.Errorf("attribute returned %d buckets, want %d", len(got), len(buckets))
	}
	if sum != total {
		t.Errorf("buckets sum to %d, profile total %d", sum, total)
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) msg(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestParseSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"portals3/internal/fw.(*NIC).rx", "portals3/internal/fw.inlined", "runtime.gopark", "main.main"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.msg(1, m.Bytes())
	}
	// Sample 1: packed location ids and values; sample 2: unpacked.
	var s1 pb
	s1.msg(1, packed(10, 20))
	s1.msg(2, packed(3, 30_000_000))
	prof.msg(2, s1.Bytes())
	var s2 pb
	s2.varint(1, 30)
	s2.varint(2, 1)
	s2.varint(2, 10_000_000)
	prof.msg(2, s2.Bytes())
	// Location 10 holds an inlined frame: lines are innermost first.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{10, []uint64{2, 1}}, {20, []uint64{4}}, {30, []uint64{3}}} {
		var m pb
		m.varint(1, loc.id)
		m.varint(3, 0xdead) // address: skipped
		for _, fn := range loc.fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			m.msg(4, line.Bytes())
		}
		prof.msg(4, m.Bytes())
	}
	for _, fn := range [][2]uint64{{1, 5}, {2, 6}, {3, 7}, {4, 8}} {
		var m pb
		m.varint(1, fn[0])
		m.varint(2, fn[1])
		prof.msg(5, m.Bytes())
	}
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	prof.varint(12, 10_000_000) // period: skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	wantStack := []string{"portals3/internal/fw.inlined", "portals3/internal/fw.(*NIC).rx", "main.main"}
	if got := samples[0].stack; len(got) != 3 || got[0] != wantStack[0] || got[1] != wantStack[1] || got[2] != wantStack[2] {
		t.Errorf("sample 0 stack %q, want %q", got, wantStack)
	}
	if samples[0].cpuNs != 30_000_000 || samples[1].cpuNs != 10_000_000 {
		t.Errorf("cpu values %d, %d", samples[0].cpuNs, samples[1].cpuNs)
	}
	got := attribute(samples)
	if got["fw"] != 30_000_000 || got["runtime.sched"] != 10_000_000 {
		t.Errorf("attribution %v", got)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0xff}) // field 1, length past the end
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}

var sink uint64

// TestParseRuntimeProfile decodes a real CPU profile of a busy loop.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	got := attribute(samples)
	if got["driver"] == 0 {
		t.Errorf("busy loop in package main not attributed to driver: %v", got)
	}
}
