// Command perfbench is the repository benchmark: the host cost of
// reproducing the paper's figures and of two 512-node machine-scale jobs,
// end to end and, in a separate traced run, layer by layer.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload halo512 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones of BENCHMARK.json, measured over untraced iterations;
// with --trace 1 they are the per-layer ones, from one iteration run under
// a CPU profile. README.md maps each layer metric to the end-to-end metric
// and workload it should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"portals3/internal/machine"
)

// metricDef is one reported metric; the tables below are what
// BENCHMARK.json lists (the tests hold the two in step).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_us", "us_simulated", "lower"},
	{"ops_ok_frac", "fraction", "higher"},
}

var perLayer = []metricDef{
	{"machine.setup_us_per_node", "us", "lower"},
	{"machine.setup_mallocs_per_node", "count", "lower"},
	{"machine.live_kb_per_node", "KB", "lower"},
	{"runtime.gc_cpu_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.sched_cpu_ms", "ms", "lower"},
	{"runtime.other_cpu_ms", "ms", "lower"},
	{"runtime.mallocs_per_msg", "count", "lower"},
	{"sim.cpu_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.lane_wait_frac", "fraction", "lower"},
	{"sim.max_imbalance_pct", "%", "lower"},
	{"fabric.cpu_ms", "ms", "lower"},
	{"fabric.chunks", "count", "lower"},
	{"fabric.link_retries", "count", "lower"},
	{"fabric.host_ns_per_chunk", "ns", "lower"},
	{"fw.cpu_ms", "ms", "lower"},
	{"fw.headers_rx", "count", "lower"},
	{"fw.events_posted", "count", "lower"},
	{"nal.cpu_ms", "ms", "lower"},
	{"core.cpu_ms", "ms", "lower"},
	{"oskernel.cpu_ms", "ms", "lower"},
	{"oskernel.interrupts", "count", "lower"},
	{"seastar.cpu_ms", "ms", "lower"},
	{"mpi.cpu_ms", "ms", "lower"},
	{"machine.cpu_ms", "ms", "lower"},
	{"driver.cpu_ms", "ms", "lower"},
	{"other.cpu_ms", "ms", "lower"},
	{"profile.cpu_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"ops_failed_frac", "fraction", "lower"},
}

// golden holds the SHA-256 of each workload's simulated output at full
// scale. paper_figures and halo512 take no input from the seed; hotspot512
// is pinned at seed 1.
var golden = map[string]string{
	"paper_figures":     "75ad7c22fe68f6e05ff0d1ff0447fd3968da0ee0d8f2e30aa62d49f90440e79b",
	"halo512":           "969b12ef4ef3c495d9ba79725e1573a782fabeb97d195ebaa5df47639d75fcff",
	"hotspot512/seed=1": "720f617d2818429b92276547850645dc6fa03a38aa4ce735530fae1fcb4e928e",
}

func goldenKey(workload string, seed int64) string {
	if workload == "hotspot512" {
		return fmt.Sprintf("%s/seed=%d", workload, seed)
	}
	return workload
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig sets how long a run measures and how often it sets up.
type runConfig struct {
	seconds      float64 // untraced measurement time
	minIters     int     // untraced iterations at least
	setupSamples int     // timed machine builds at least; setup_s is their median
	setupSeconds float64 // time spent on timed builds at least
	traceSeconds float64 // about how long each traced-run group lasts
	// golden maps goldenKey to the recorded digest of the simulated output.
	golden map[string]string
}

// defaultRun is the configuration of every command-line run; --seconds
// replaces its measurement time.
var defaultRun = runConfig{minIters: 3, setupSamples: 9, setupSeconds: 1, traceSeconds: 3, golden: golden}

func main() {
	workloadName := flag.String("workload", "", "workload: paper_figures, halo512 or hotspot512")
	seed := flag.Int64("seed", 1, "input seed (hotspot512 destination streams)")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced iterations and reports per-layer metrics")
	commit := flag.String("commit", "none", "source commit, for the host fingerprint")
	flag.Parse()

	var w *workload
	for _, c := range workloads(fullScale) {
		if c.name == *workloadName {
			w = &c
		}
	}
	if w == nil || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper_figures|halo512|hotspot512, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	fmt.Println("host:", fingerprint(*commit))

	cfg := defaultRun
	cfg.seconds = *seconds
	var b bench
	if *traced == 1 {
		b = runTraced(*w, *seed, cfg)
	} else {
		b = runUntraced(*w, *seed, cfg)
	}
	fmt.Println("digest", goldenKey(w.name, *seed), b.digest)
	for _, l := range b.notes {
		fmt.Println(l)
	}
	for _, f := range b.failures {
		fmt.Println("FAIL:", f)
	}
	out, err := json.Marshal(b.report())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench accumulates one run: verification across iterations and the
// metrics to print.
type bench struct {
	want      string // recorded digest, hex; empty when none is recorded
	digest    string // first iteration's digest, hex
	attempted int
	failures  []string
	notes     []string
	metrics   map[string]value
}

func newBench(w workload, seed int64, cfg runConfig) bench {
	return bench{want: cfg.golden[goldenKey(w.name, seed)], metrics: map[string]value{}}
}

// verify folds one iteration's outcome into the run: its operations, its
// verification failures, and a digest that differs from the first
// iteration's or from the recorded one.
func (b *bench) verify(o outcome) {
	b.attempted += o.ops + 1 // +1: the digest comparison
	b.failures = append(b.failures, o.failures...)
	d := hex.EncodeToString(o.digest[:])
	if b.digest == "" {
		b.digest = d
	}
	switch {
	case d != b.digest:
		b.failures = append(b.failures, fmt.Sprintf("digest %s differs from the first iteration's %s", d, b.digest))
	case b.want != "" && d != b.want:
		b.failures = append(b.failures, fmt.Sprintf("digest %s differs from the recorded %s", d, b.want))
	}
}

func (b *bench) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				b.metrics[name] = value{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (b *bench) report() report {
	return report{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   b.metrics,
	}
}

// iter is the host-side measurement of one iteration.
type iter struct {
	wall      time.Duration
	allocB    uint64
	mallocs   uint64
	gcCycles  uint64
	peakHeapB uint64
	out       outcome
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() [3]uint64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return [3]uint64{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// timeIter runs one iteration from a freshly collected heap.
func timeIter(w workload, seed int64, hostProf bool) iter {
	runtime.GC()
	before := readRuntime()
	stopPeak := startHeapPeak()
	t0 := time.Now()
	o := w.run(seed, hostProf)
	wall := time.Since(t0)
	peak := stopPeak()
	after := readRuntime()
	return iter{wall: wall, allocB: after[0] - before[0], mallocs: after[1] - before[1],
		gcCycles: after[2] - before[2], peakHeapB: peak, out: o}
}

// startHeapPeak samples the heap's object bytes every 10 ms until the
// returned function is called; that function waits for the sampler to
// exit and returns the highest reading.
func startHeapPeak() func() uint64 {
	done := make(chan struct{})
	res := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		read()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				read()
				res <- peak
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-res
	}
}

// setupSample is one timed build of the workload's machine.
type setupSample struct {
	wall    time.Duration
	mallocs uint64
	liveB   int64 // heap the built machine retains
}

// timeSetup times one build of the workload's machine from a collected
// heap.
func timeSetup(w workload) setupSample {
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := readRuntime()
	t0 := time.Now()
	m := w.build()
	d := time.Since(t0)
	after := readRuntime()
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	runtime.KeepAlive(m)
	return setupSample{wall: d, mallocs: after[1] - before[1],
		liveB: int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)}
}

// medianSetup returns the build of median wall time out of at least
// cfg.setupSamples builds taking at least cfg.setupSeconds, after one
// untimed build has grown the heap to its working size.
func medianSetup(w workload, cfg runConfig) setupSample {
	timeSetup(w)
	var s []setupSample
	var spent time.Duration
	for len(s) < cfg.setupSamples || spent.Seconds() < cfg.setupSeconds {
		x := timeSetup(w)
		s = append(s, x)
		spent += x.wall
	}
	sort.Slice(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	return s[len(s)/2]
}

// runUntraced measures the end-to-end metrics: set-up builds, one warm-up
// iteration, then iterations until the measurement time is spent.
func runUntraced(w workload, seed int64, cfg runConfig) bench {
	b := newBench(w, seed, cfg)
	setup := medianSetup(w, cfg)

	b.verify(timeIter(w, seed, false).out) // warm-up
	var its []iter
	start := time.Now()
	for len(its) < cfg.minIters || time.Since(start).Seconds() < cfg.seconds {
		it := timeIter(w, seed, false)
		b.verify(it.out)
		its = append(its, it)
	}
	walls := make([]float64, len(its))
	allocs := make([]float64, len(its))
	peaks := make([]float64, len(its))
	for i, it := range its {
		walls[i] = it.wall.Seconds()
		allocs[i] = float64(it.allocB) / 1e6
		peaks[i] = float64(it.peakHeapB) / 1e6
		b.notes = append(b.notes, fmt.Sprintf("iteration %d: wall_s %.4f peak_heap_mb %.2f alloc_mb %.2f gc_cycles %d",
			i+1, walls[i], peaks[i], allocs[i], it.gcCycles))
	}
	wall := median(walls)
	o := its[0].out
	b.set("wall_s", wall)
	b.set("setup_s", setup.wall.Seconds())
	b.set("msgs_per_s", float64(o.msgs)/wall)
	b.set("peak_heap_mb", quartiles(peaks)[4])
	b.set("alloc_mb", median(allocs))
	b.set("sim_us", float64(o.simPs)/1e6)
	b.set("ops_ok_frac", 1-float64(len(b.failures))/float64(b.attempted))
	q := quartiles(walls)
	b.notes = append(b.notes, fmt.Sprintf("%s: %d iterations, wall_s min %.4f q1 %.4f median %.4f q3 %.4f max %.4f; %d msgs/iteration",
		w.name, len(its), q[0], q[1], q[2], q[3], q[4], o.msgs))
	return b
}

// runTraced measures the per-layer metrics: set-up builds, a warm-up
// iteration, then n untraced iterations (the overhead reference and the
// source of the runtime counts) and n iterations under a CPU profile with
// the kernel's host profiler armed, n chosen so each group lasts about
// cfg.traceSeconds (one iteration of a torus workload holds too few 100 Hz
// profile samples to attribute). Times and runtime counts are per
// iteration.
func runTraced(w workload, seed int64, cfg runConfig) bench {
	b := newBench(w, seed, cfg)
	setup := medianSetup(w, cfg)
	warm := timeIter(w, seed, false)
	b.verify(warm.out)
	n := max(1, int(cfg.traceSeconds/warm.wall.Seconds()+0.5))

	var plainWall, plainMallocs, plainGC float64
	for i := 0; i < n; i++ {
		it := timeIter(w, seed, false)
		b.verify(it.out)
		plainWall += it.wall.Seconds() / float64(n)
		plainMallocs += float64(it.mallocs) / float64(n)
		plainGC += float64(it.gcCycles) / float64(n)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.failures = append(b.failures, "cpu profile: "+err.Error())
	}
	var tracedWall float64
	var o outcome
	var hp *machine.HostProfile
	for i := 0; i < n; i++ {
		it := timeIter(w, seed, true)
		b.verify(it.out)
		tracedWall += it.wall.Seconds() / float64(n)
		o = it.out
		if hp == nil {
			hp = o.prof
		} else {
			hp.Merge(o.prof)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		b.failures = append(b.failures, err.Error())
	}
	cpu := attribute(samples)
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	ms := func(bucket string) float64 { return float64(cpu[bucket]) / 1e6 / float64(n) }

	nodes := float64(w.nodes)
	b.set("machine.setup_us_per_node", float64(setup.wall.Nanoseconds())/1e3/nodes)
	b.set("machine.setup_mallocs_per_node", float64(setup.mallocs)/nodes)
	b.set("machine.live_kb_per_node", float64(setup.liveB)/1024/nodes)
	b.set("runtime.gc_cpu_ms", ms("runtime.gc"))
	b.set("runtime.gc_cycles", plainGC)
	b.set("runtime.sched_cpu_ms", ms("runtime.sched"))
	b.set("runtime.other_cpu_ms", ms("runtime.other"))
	b.set("runtime.mallocs_per_msg", plainMallocs/float64(o.msgs))
	for _, l := range []string{"sim", "fabric", "fw", "nal", "core", "oskernel", "seastar", "mpi", "machine", "driver", "other"} {
		b.set(l+".cpu_ms", ms(l))
	}
	b.set("profile.cpu_ms", float64(total)/1e6/float64(n))
	b.set("sim.events", float64(o.events))
	b.set("sim.host_ns_per_event", 0)
	if o.events > 0 {
		b.set("sim.host_ns_per_event", plainWall*1e9/float64(o.events))
	}
	var windows, waitFrac, imbalance float64
	if hp != nil {
		windows, imbalance = float64(hp.Windows)/float64(hp.Runs), hp.MaxImbalancePct
		var busy, wait int64
		for _, l := range hp.Lanes {
			busy += l.BusyNs
			wait += l.WaitNs
		}
		if busy+wait > 0 {
			waitFrac = float64(wait) / float64(busy+wait)
		}
	} else {
		b.notes = append(b.notes, "absent: sim.windows, sim.lane_wait_frac, sim.max_imbalance_pct "+
			"(the figures run on classic two-node machines, which have no lanes or windows; reported as 0)")
	}
	b.set("sim.windows", windows)
	b.set("sim.lane_wait_frac", waitFrac)
	b.set("sim.max_imbalance_pct", imbalance)
	c := o.counts
	b.set("fabric.chunks", float64(c.chunks))
	b.set("fabric.link_retries", float64(c.linkRetries))
	b.set("fabric.host_ns_per_chunk", 0)
	if c.chunks > 0 {
		b.set("fabric.host_ns_per_chunk", ms("fabric")*1e6/float64(c.chunks))
	}
	b.set("fw.headers_rx", float64(c.headersRx))
	b.set("fw.events_posted", float64(c.eventsPosted))
	b.set("oskernel.interrupts", float64(c.interrupts))
	b.set("trace.overhead_pct", 100*(tracedWall-plainWall)/plainWall)
	b.set("ops_failed_frac", float64(len(b.failures))/float64(b.attempted))
	b.notes = append(b.notes, fmt.Sprintf("%s: %d untraced + %d traced iterations, %.4f vs %.4f s each, %d profile samples, %d msgs/iteration",
		w.name, n, n, plainWall, tracedWall, len(samples), o.msgs))
	return b
}

func median(v []float64) float64 { return quartiles(v)[2] }

// quartiles returns min, first quartile, median, third quartile and max,
// interpolating between order statistics.
func quartiles(v []float64) [5]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [5]float64{s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]}
}

// fingerprint identifies the host and the source measured: CPU model,
// logical CPUs, GOMAXPROCS, Go version, commit, and a digest of the Go
// sources (the checkout need not be a git repository).
func fingerprint(commit string) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fp := map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "tree": treeDigest("go.mod", "internal", "perfbench"),
	}
	out, _ := json.Marshal(fp) // a map of strings and ints always marshals
	return string(out)
}

// treeDigest hashes the named files and directory trees under the working
// directory, in lexical order; "none" if any is missing.
func treeDigest(roots ...string) string {
	h := sha256.New()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\n", path)
			_, err = io.Copy(h, f)
			return err
		})
		if err != nil {
			return "none"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
