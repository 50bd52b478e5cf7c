// Command netpipe is the benchmark driver: it regenerates the paper's
// figures over the simulated XT3 (two adjacent Catamount nodes, as in §5)
// and prints NetPIPE-style tables.
//
// Reproduce a whole figure:
//
//	netpipe -fig 4        # latency (paper Figure 4)
//	netpipe -fig 5        # uni-directional bandwidth (Figure 5)
//	netpipe -fig 6        # streaming bandwidth (Figure 6)
//	netpipe -fig 7        # bi-directional bandwidth (Figure 7)
//	netpipe -fig all -checks
//
// Or run one curve:
//
//	netpipe -series put -pattern pingpong -max 1048576
//	netpipe -series mpich2 -pattern stream
//	netpipe -series put -pattern pingpong -accel   # accelerated mode
//
// The fabric's fault-injection plane is exposed for lossy-fabric runs;
// combine it with -gbn so the go-back-n protocol recovers the losses
// (without it, dropped frames are simply gone, as on a panic-policy
// machine):
//
//	netpipe -series put -gbn -faults drop:data:0.01,drop:fcack:0.05
//	netpipe -series put -gbn -faults delay:data:0.02:20us -faultseed 7
//
// Timed faults — link flaps, node stalls, firmware restarts, loss bursts —
// use the declarative -schedule grammar instead; unlike -faults they are
// deterministic in virtual time and work at any -shards count:
//
//	netpipe -series put -pattern stream -gbn -schedule 'linkdown:0:X+:150us:100us'
//	netpipe -torus -shards 4 -gbn -schedule 'stall:5:400us:80us,burst:drop:data:0.2:200us:60us'
//
// The machine-scale torus halo exchange runs on the sharded parallel
// kernel; -shards picks the lane count, 1 being the sequential reference
// (simulated results are bit-identical at every count):
//
//	netpipe -torus -shards 4
//
// -obs DIR writes the run bundle: every observer the run supports, under
// fixed names in DIR (render it with p3stat DIR). Single runs (-series,
// -torus, each -workload sweep arm) record stats.txt, telemetry.json,
// telemetry.prom, trace.json, run.p3dump plus one dump per failure
// report, and hostprof.json; every mode records cpu.pprof and mem.pprof
// (go tool pprof). Sweep arms get one subdirectory each:
//
//	netpipe -series put -max 4096 -obs run1
//	netpipe -torus -shards 4 -obs halo
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"portals3/internal/experiments"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// samplePeriod is the RAS sampler period of an -obs run.
const samplePeriod = 1000 * sim.Microsecond

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the selected mode with
// its tables on stdout and diagnostics on stderr, and returns the exit
// status — 2 for bad usage, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netpipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to reproduce: 4, 5, 6, 7 or all")
	series := fs.String("series", "", "single curve: put, get, mpich1, mpich2")
	pattern := fs.String("pattern", "pingpong", "pingpong, stream or bidir")
	maxBytes := fs.Int("max", 8<<20, "largest message size in bytes")
	accel := fs.Bool("accel", false, "use accelerated-mode Portals processing")
	checks := fs.Bool("checks", false, "print paper-vs-measured checks (with -fig)")
	ablations := fs.Bool("ablations", false, "run the design-choice ablations (A1-A6) and print checks")
	faults := fs.String("faults", "", "seeded fault injection: kind:frame:prob[:delay] rules, comma-separated (kinds drop,dup,delay,reorder; frames any,data,fcack,fcnack)")
	faultSeed := fs.Int64("faultseed", 0, "fault plane PRNG seed; 0 uses the built-in default (with -faults)")
	schedule := fs.String("schedule", "", "declarative timed-fault schedule: linkdown:NODE:DIR:AT:DUR, stall:NODE:AT:DUR, restart:NODE:AT:DUR, burst:KIND:FRAME:PROB:AT:DUR[:DELAY], corrupt:NODE:AT, comma-separated; works at any -shards count (combine with -gbn to recover losses)")
	gbn := fs.Bool("gbn", false, "enable the go-back-n loss/exhaustion recovery protocol (with -series or -torus)")
	torus := fs.Bool("torus", false, "run a machine-scale torus workload instead of a netpipe curve")
	dim := fs.Int("dim", 8, "torus dimension: dim^3 nodes (with -torus)")
	shards := fs.Int("shards", 1, "event lanes for the sharded parallel kernel (with -torus)")
	workload := fs.String("workload", "halo", "torus workload: halo, collective, random, hotspot or sweep (with -torus)")
	steps := fs.Int("steps", 0, "iterations: halo exchange steps or collective rounds, 0 for the workload default (with -torus)")
	msgs := fs.Int("msgs", 8, "messages per sender (with -workload random/hotspot/sweep)")
	load := fs.Float64("load", 1.0, "offered load per sender as a fraction of link line rate (with -workload random/hotspot)")
	loads := fs.String("loads", "0.25,0.5,0.75,1.0", "comma-separated offered-load ladder (with -workload sweep)")
	hot := fs.Int("hot", 0, "hot-spot destination node id (with -workload hotspot)")
	hotFrac := fs.Float64("hotfrac", 0.2, "probability a message targets the hot node (with -workload hotspot)")
	wseed := fs.Uint64("wseed", 1, "destination-stream seed (with -workload random/hotspot/sweep)")
	progress := fs.Bool("progress", false, "print a live progress line (virtual-time rate, events/sec, lane imbalance, heap, ETA) to stderr every second (with -series or -torus)")
	obs := fs.String("obs", "", "write the run bundle into this directory: every observer's artifact under a fixed name, plus cpu.pprof and mem.pprof; render with p3stat DIR")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Every -workload names a torus workload, so setting it explicitly
	// implies -torus: `netpipe -workload sweep -shards 4` runs the sweep.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			*torus = true
		}
	})
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "netpipe: "+format+"\n", args...)
		return 2
	}

	p := model.Defaults()
	rules, err := model.ParseFaults(*faults)
	if err != nil {
		return usage("%v", err)
	}
	p.Faults = rules
	p.FaultSeed = *faultSeed
	// Flag validation happens here, before any machine exists, so a bad
	// combination is a clear exit-2 diagnostic rather than a panic deep in
	// construction (a schedule-validation panic).
	var loadLadder []float64
	if *torus {
		if *dim < 3 {
			return usage("-dim %d: a torus needs dim >= 3 (smaller axes have no wraparound)", *dim)
		}
		if *shards < 1 {
			return usage("-shards %d: the kernel needs at least one event lane", *shards)
		}
		if nodes := *dim * *dim * *dim; *shards > nodes {
			return usage("-shards %d exceeds the %d-node torus: surplus lanes would sit permanently empty", *shards, nodes)
		}
		switch *workload {
		case "halo", "collective", "random", "hotspot", "sweep":
		default:
			return usage("unknown -workload %q (want halo, collective, random, hotspot or sweep)", *workload)
		}
		if *workload == "hotspot" {
			if nodes := *dim * *dim * *dim; *hot < 0 || *hot >= nodes {
				return usage("-hot %d outside the %d-node torus", *hot, nodes)
			}
			if *hotFrac <= 0 || *hotFrac > 1 {
				return usage("-hotfrac %g must be in (0, 1]", *hotFrac)
			}
		}
		if (*workload == "random" || *workload == "hotspot") && *load <= 0 {
			return usage("-load %g must be positive", *load)
		}
		if *workload == "sweep" {
			for _, s := range strings.Split(*loads, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || v <= 0 {
					return usage("-loads %q: each entry must be a positive load factor", *loads)
				}
				loadLadder = append(loadLadder, v)
			}
		}
	}
	if p.Schedule, err = model.ParseSchedule(*schedule); err != nil {
		return usage("-schedule: %v", err)
	}
	var mode string // the run mode, in flag precedence order
	switch {
	case *ablations:
		mode = "ablations"
	case *torus:
		mode = "torus"
	case *fig != "":
		mode = "fig"
	case *series != "":
		mode = "series"
	default:
		fs.Usage()
		return 2
	}
	if (mode == "fig" || mode == "ablations") && (len(p.Schedule) > 0 || *progress) {
		return usage("-schedule and -progress apply to a single run; use them with -series or -torus, not -fig/-ablations")
	}
	if len(p.Schedule) > 0 {
		// Validate against the topology the run will actually build: the
		// dim^3 torus, or the two-node netpipe pair.
		tp, err := topo.New(2, 1, 1, false, false, false)
		if *torus {
			tp, err = topo.XT3Torus(*dim, *dim, *dim)
		}
		if err != nil {
			return usage("%v", err)
		}
		if err := p.Schedule.Validate(tp); err != nil {
			return usage("-schedule: %v", err)
		}
	}
	switch mode {
	case "fig":
		switch *fig {
		case "4", "5", "6", "7", "all":
		default:
			return usage("unknown figure %q", *fig)
		}
	case "series":
		switch *series {
		case "put", "get", "mpich1", "mpich2":
		default:
			return usage("unknown series %q", *series)
		}
		if _, ok := patterns[*pattern]; !ok {
			return usage("unknown pattern %q", *pattern)
		}
	}

	c := &cli{out: stdout, errw: stderr, obs: *obs}
	if *progress {
		c.progress = func(hp sim.HostProgress) { fmt.Fprintln(stderr, "progress:", hp) }
	}
	var cpu *os.File
	if c.obs != "" {
		if err := os.MkdirAll(c.obs, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if cpu, err = os.Create(filepath.Join(c.obs, "cpu.pprof")); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var code int
	switch mode {
	case "ablations":
		c.runAblations(p)
	case "torus":
		code = c.runTorus(p, torusOpts{
			workload: *workload, dim: *dim, shards: *shards, steps: *steps,
			msgs: *msgs, load: *load, loads: loadLadder,
			hot: topo.NodeID(*hot), hotFrac: *hotFrac, wseed: *wseed, gbn: *gbn,
		})
	case "fig":
		c.runFigures(p, *fig, *checks)
	case "series":
		code = c.runSeries(p, *series, patterns[*pattern], *maxBytes, *accel, *gbn)
	}
	if cpu != nil {
		pprof.StopCPUProfile()
		runtime.GC()
		err := cpu.Close()
		if err == nil {
			err = writeHeapProfile(filepath.Join(c.obs, "mem.pprof"))
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "host profiles written to %s/cpu.pprof and %s/mem.pprof (go tool pprof)\n", c.obs, c.obs)
	}
	return code
}

// writeHeapProfile writes the process heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// patterns maps the -pattern names to the driver's patterns.
var patterns = map[string]netpipe.Pattern{
	"pingpong": netpipe.PingPong,
	"stream":   netpipe.Stream,
	"bidir":    netpipe.Bidir,
}

// cli carries the output streams and the run-wide options into the run
// modes.
type cli struct {
	out, errw io.Writer
	obs       string                 // bundle directory, "" when -obs is off
	progress  func(sim.HostProgress) // -progress printer, nil when off
}

// writeBundle lays one run's bundle out under dir.
func (c *cli) writeBundle(dir string, b experiments.Bundle) int {
	paths, err := b.Write(dir, "")
	if err != nil {
		fmt.Fprintln(c.errw, err)
		return 1
	}
	fmt.Fprintf(c.out, "run bundle: %d files written to %s (render with p3stat %s)\n", len(paths), dir, dir)
	return 0
}

// torusOpts carries the -torus flags into the workload runners.
type torusOpts struct {
	workload    string
	dim, shards int
	steps, msgs int
	load        float64
	loads       []float64 // sweep ladder
	hot         topo.NodeID
	hotFrac     float64
	wseed       uint64
	gbn         bool
}

// baseConfig assembles the TorusConfig shared by every workload from the
// command line and the fault plan, arming every observer under -obs.
func (c *cli) baseConfig(p model.Params, o torusOpts) experiments.TorusConfig {
	cfg := experiments.DefaultTorusConfig()
	cfg.Dim = o.dim
	cfg.Shards = o.shards
	cfg.GoBackN = o.gbn
	cfg.Faults = p.Faults
	cfg.FaultSeed = p.FaultSeed
	cfg.Schedule = p.Schedule
	if o.steps > 0 {
		cfg.Steps = o.steps
	}
	if c.obs != "" {
		cfg.Telemetry, cfg.FlightRec, cfg.Trace, cfg.HostProf = true, true, true, true
		cfg.SamplePeriod = samplePeriod
		cfg.StallWindow = p.Schedule.StallWindow()
	}
	cfg.Progress = c.progress
	return cfg
}

// trafficConfig assembles the generator shape for the random/hotspot/sweep
// workloads at one offered load.
func (c *cli) trafficConfig(p model.Params, o torusOpts, load float64) experiments.TrafficConfig {
	return experiments.TrafficConfig{
		TorusConfig: c.baseConfig(p, o),
		Msgs:        o.msgs,
		Load:        load,
		HotFrac:     o.hotFrac,
		HotNode:     o.hot,
		Seed:        o.wseed,
	}
}

// runTorus drives one machine-scale workload (or the latency-under-load
// sweep) on the sharded kernel. Under -obs the RAS sampler runs too
// (lane-local, merged at snapshot time) so the telemetry carries the
// per-link contention series, and the per-hop-count latency summary
// prints after the run.
func (c *cli) runTorus(p model.Params, o torusOpts) int {
	if o.workload == "sweep" {
		return c.runSweep(p, o)
	}
	var r experiments.TorusResult
	switch o.workload {
	case "halo":
		cfg := c.baseConfig(p, o)
		r = experiments.TorusHalo(cfg)
		fmt.Fprintf(c.out, "# torus halo: %d nodes (%dx%dx%d, radius %d), %d KB faces, %d steps, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Radius, cfg.Bytes/1024, cfg.Steps, r.Shards)
	case "collective":
		cfg := experiments.DefaultCollectiveConfig()
		base := c.baseConfig(p, o)
		base.Bytes, base.Steps = cfg.Bytes, cfg.Steps
		if o.steps > 0 {
			base.Steps = o.steps
		}
		r = experiments.TorusCollective(base)
		fmt.Fprintf(c.out, "# torus collective: %d ranks (%dx%dx%d), %d-byte vectors, %d allreduce+bcast rounds, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, base.Bytes, base.Steps, r.Shards)
	case "random":
		cfg := c.trafficConfig(p, o, o.load)
		cfg.HotFrac = 0
		r = experiments.TorusTraffic(cfg)
		fmt.Fprintf(c.out, "# torus uniform traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, r.Shards)
	case "hotspot":
		cfg := c.trafficConfig(p, o, o.load)
		r = experiments.TorusTraffic(cfg)
		fmt.Fprintf(c.out, "# torus hot-spot traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, %.0f%% -> node %d, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, 100*cfg.HotFrac, cfg.HotNode, r.Shards)
	}
	fmt.Fprintf(c.out, "finished at %.1f us simulated, %d kernel windows\n",
		float64(r.FinishPs)/1e6, r.Windows)
	if r.FaultsLine != "" {
		fmt.Fprintf(c.out, "fault plane: %s\n", r.FaultsLine)
	}
	code := 0
	if c.obs != "" {
		if rows, err := experiments.HopCurve(r.TelemetryJSON); err == nil && len(rows) > 0 {
			fmt.Fprintln(c.out)
			experiments.RenderHopCurve(c.out, rows)
		}
		code = c.writeBundle(c.obs, r.Bundle)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(c.errw, "ERROR: "+e)
	}
	if len(r.Errors) > 0 {
		code = 1
	}
	return code
}

// runSweep runs the uniform traffic generator once per offered load and
// prints each arm's per-hop-count latency curve plus a closing summary —
// the latency-under-load methodology of EXPERIMENTS.md. Telemetry is
// forced on (the curves come from it); under -obs each arm writes its
// bundle to DIR/loadL.LL, and DIR/hostprof.json merges the arms' host
// profiles.
func (c *cli) runSweep(p model.Params, o torusOpts) int {
	fmt.Fprintf(c.out, "# latency-under-load sweep: %d nodes (%dx%dx%d), %d x %d B per sender, loads %v, shards=%d\n",
		o.dim*o.dim*o.dim, o.dim, o.dim, o.dim, o.msgs, experiments.DefaultTorusConfig().Bytes, o.loads, o.shards)
	type arm struct {
		load            float64
		finishPs        int64
		e2eMean, e2eP99 float64
	}
	arms := make([]arm, 0, len(o.loads))
	code := 0
	var hostprof *machine.HostProfile // merged across the sweep's arms
	for _, load := range o.loads {
		cfg := c.trafficConfig(p, o, load)
		cfg.HotFrac = 0
		cfg.Telemetry = true
		cfg.SamplePeriod = samplePeriod
		r := experiments.TorusTraffic(cfg)
		if r.HostProfile != nil {
			if hostprof == nil {
				hostprof = r.HostProfile
			} else {
				hostprof.Merge(r.HostProfile)
			}
		}
		for _, e := range r.Errors {
			fmt.Fprintln(c.errw, "ERROR: "+e)
			code = 1
		}
		rows, err := experiments.HopCurve(r.TelemetryJSON)
		if err != nil {
			fmt.Fprintln(c.errw, err)
			code = 1
			continue
		}
		a := arm{load: load, finishPs: r.FinishPs}
		var msgs uint64
		for _, row := range rows {
			a.e2eMean += row.E2EMeanPs * float64(row.Msgs)
			msgs += row.Msgs
			if row.E2EP99Ps > a.e2eP99 {
				a.e2eP99 = row.E2EP99Ps
			}
		}
		if msgs > 0 {
			a.e2eMean /= float64(msgs)
		}
		arms = append(arms, a)
		fmt.Fprintf(c.out, "\n== load %.2f (finished at %.1f us, %d kernel windows)\n",
			load, float64(r.FinishPs)/1e6, r.Windows)
		experiments.RenderHopCurve(c.out, rows)
		if c.obs != "" {
			if c.writeBundle(filepath.Join(c.obs, fmt.Sprintf("load%.2f", load)), r.Bundle) != 0 {
				return 1
			}
		}
	}
	fmt.Fprintf(c.out, "\nlatency vs offered load:\n")
	fmt.Fprintf(c.out, "  %6s %12s %12s %12s\n", "load", "finish", "e2e-mean", "e2e-p99")
	for _, a := range arms {
		fmt.Fprintf(c.out, "  %6.2f %10.1fus %10.3fus %10.3fus\n",
			a.load, float64(a.finishPs)/1e6, a.e2eMean/1e6, a.e2eP99/1e6)
	}
	if hostprof != nil && c.obs != "" {
		if _, err := (experiments.Bundle{HostProfile: hostprof}).Write(c.obs, ""); err != nil {
			fmt.Fprintln(c.errw, err)
			return 1
		}
	}
	return code
}

// runAblations reproduces the A1-A6 ablation studies of DESIGN.md.
func (c *cli) runAblations(p model.Params) {
	w := c.out
	fmt.Fprintln(w, "# A1: generic vs accelerated mode (paper §3.3)")
	experiments.RenderChecks(w, experiments.AblationAccelerated(p).Checks())
	fmt.Fprintln(w, "\n# A2: resource exhaustion, panic vs go-back-n (paper §4.3)")
	gbn := experiments.AblationGoBackN(p, 4, 30, 2048)
	fmt.Fprintf(w, "  %v\n  %v\n", gbn[0], gbn[1])
	experiments.RenderChecks(w, experiments.GbnChecks(gbn))
	fmt.Fprintln(w, "\n# A6: incast over a lossy fabric, panic vs go-back-n (DESIGN.md §9)")
	lossy := experiments.AblationLossyIncast(p, 4, 30, 2048, 0xfa017)
	fmt.Fprintf(w, "  %v\n  %v\n", lossy.Arms[0], lossy.Arms[1])
	experiments.RenderChecks(w, experiments.LossyChecks(lossy))
	fmt.Fprintln(w, "\n# A3: inline payload optimization removed (paper §6)")
	experiments.RenderChecks(w, experiments.AblationInline(p).Checks())
	fmt.Fprintln(w, "\n# A4: interrupt coalescing removed (paper §4.1)")
	experiments.RenderChecks(w, experiments.AblationCoalescing(p).Checks())
	fmt.Fprintln(w, "\n# A5: RX FIFO shrunk to 2 KB")
	experiments.RenderChecks(w, experiments.AblationRxFIFO(p).Checks())
	fmt.Fprintln(w, "\n# model robustness")
	experiments.RenderChecks(w, experiments.ChunkRobustness(p))
}

// runFigures regenerates one paper figure, or all four, with optional
// paper-vs-measured checks.
func (c *cli) runFigures(p model.Params, which string, checks bool) {
	w := c.out
	show := func(f experiments.Figure) { f.Render(w); fmt.Fprintln(w) }
	switch which {
	case "4":
		f4 := experiments.Figure4(p)
		show(f4)
		f4.RenderPercentiles(w)
		if checks {
			experiments.RenderChecks(w, experiments.LatencyChecks(f4))
			c.showBreakdown(p)
		}
	case "5":
		show(experiments.Figure5(p))
	case "6":
		show(experiments.Figure6(p))
	case "7":
		show(experiments.Figure7(p))
	case "all":
		f4, f5, f6, f7 := experiments.Figure4(p), experiments.Figure5(p), experiments.Figure6(p), experiments.Figure7(p)
		for _, f := range []experiments.Figure{f4, f5, f6, f7} {
			show(f)
		}
		f4.RenderPercentiles(w)
		if checks {
			experiments.RenderChecks(w, experiments.LatencyChecks(f4))
			experiments.RenderChecks(w, experiments.BandwidthChecks(f5, f6, f7))
			c.showBreakdown(p)
		}
	}
}

// showBreakdown runs the telemetry-enabled attribution sweep and prints
// the paper's latency decomposition with its checks.
func (c *cli) showBreakdown(p model.Params) {
	fmt.Fprintln(c.out)
	_, bd := experiments.TelemetryBreakdown(p)
	bd.Render(c.out)
	experiments.RenderChecks(c.out, experiments.BreakdownChecks(bd))
}

// runSeries runs one netpipe curve on the two-node pair. Under -obs it
// arms every observer on the pair and writes the run bundle.
func (c *cli) runSeries(p model.Params, series string, pat netpipe.Pattern, maxBytes int, accel, gbn bool) int {
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = maxBytes
	if accel {
		cfg.Mode = machine.Accelerated
	}
	var mach *machine.Machine
	cfg.Observe = func(m *machine.Machine) {
		mach = m
		if gbn {
			m.EnableGoBackN()
		}
		if c.obs != "" {
			m.EnableFlightRecorder(0)
			m.StartStallDetector(p.Schedule.StallWindow())
			m.EnableTracing()
			m.EnableTelemetry()
			m.StartSampler(samplePeriod)
			m.EnableHostProfile()
		}
		if c.progress != nil {
			m.SetProgress(0, c.progress)
		}
	}
	var r netpipe.Result
	switch series {
	case "put":
		r = netpipe.RunPortals(p, netpipe.OpPut, pat, cfg)
	case "get":
		r = netpipe.RunPortals(p, netpipe.OpGet, pat, cfg)
	case "mpich1":
		r = netpipe.RunMPI(p, mpi.MPICH1, pat, cfg)
	case "mpich2":
		r = netpipe.RunMPI(p, mpi.MPICH2, pat, cfg)
	}
	fmt.Fprintf(c.out, "# %s %s (mode: %v)\n", r.Series, pat, cfg.Mode)
	for _, pt := range r.Points {
		fmt.Fprintln(c.out, pt)
	}
	if len(p.Faults) > 0 || len(p.Schedule) > 0 {
		fs, _ := mach.FaultSnapshot()
		fmt.Fprintf(c.out, "\nfault plane: %v\n", fs)
	}
	code := 0
	if c.obs != "" {
		b := experiments.Collect(mach)
		if bd, ok := mach.Telemetry().Snapshot(mach.S.Now()).Breakdown(); ok {
			fmt.Fprintln(c.out)
			bd.Render(c.out)
		}
		code = c.writeBundle(c.obs, b)
	}
	// Every failure report (ledger imbalance, stall, panic) is printed; a
	// scheduled-fault run that ends with any exits nonzero so scripted
	// repros can gate on it.
	reports := mach.Reports()
	for _, r := range reports {
		fmt.Fprintf(c.errw, "failure: %v\n", r)
	}
	if len(p.Schedule) > 0 && len(reports) > 0 {
		code = 1
	}
	return code
}
