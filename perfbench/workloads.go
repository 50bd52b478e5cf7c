package main

// The benchmark's workloads. Each drives the simulator only through its
// public entry points and returns a verified outcome whose digest covers
// every simulated artifact, so a host-only change must leave it unchanged.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"strings"

	"portals3/internal/experiments"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/topo"
)

// outcome is one verified iteration of a workload.
type outcome struct {
	digest   [32]byte
	msgs     int      // simulated messages delivered and verified
	ops      int      // operations verified: messages plus paper checks
	failures []string // verification errors and failed paper checks
	simPs    int64    // simulated completion time (figures: summed over series)
	counts   counts
	events   uint64               // simulated events; 0 when no public count exists
	prof     *machine.HostProfile // torus workloads with hostProf only
}

// counts are the simulator's own counters, read from the machine's stats
// table (machine.Stats.String, or TorusResult.StatsText).
type counts struct {
	headersRx, eventsPosted, interrupts, chunks, linkRetries uint64
}

func (c *counts) add(o counts) {
	c.headersRx += o.headersRx
	c.eventsPosted += o.eventsPosted
	c.interrupts += o.interrupts
	c.chunks += o.chunks
	c.linkRetries += o.linkRetries
}

// parseStats sums the per-node rows and reads the fabric line of a
// machine stats table.
func parseStats(text string) (counts, error) {
	var c counts
	fabricSeen := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "fabric:") {
			var msgs, delivered uint64
			if _, err := fmt.Sscanf(line, "fabric: %d messages, %d chunks, %d link retries, %d delivered",
				&msgs, &c.chunks, &c.linkRetries, &delivered); err != nil {
				return c, fmt.Errorf("stats fabric line %q: %w", line, err)
			}
			fabricSeen = true
			continue
		}
		f := strings.Fields(line)
		if len(f) < 7 || f[0] == "node" {
			continue
		}
		var v [5]uint64
		for i := range v {
			if _, err := fmt.Sscan(f[2+i], &v[i]); err != nil {
				return c, fmt.Errorf("stats row %q: %w", line, err)
			}
		}
		c.interrupts += v[0]
		c.headersRx += v[2]
		c.eventsPosted += v[4]
	}
	if !fabricSeen {
		return c, fmt.Errorf("stats table has no fabric line")
	}
	return c, nil
}

// workload is one benchmark input set.
type workload struct {
	name  string
	nodes int // nodes in the machine setup builds
	// build constructs the workload's machine with every node instantiated
	// and nothing spawned: the set-up cost setup_s measures.
	build func() *machine.Machine
	// run executes one iteration; hostProf arms the kernel's host-execution
	// profiler where the workload has one.
	run func(seed int64, hostProf bool) outcome
}

// scale selects the full benchmark shapes or the reduced ones the smoke
// test runs.
type scale struct {
	dim       int  // torus edge
	haloSteps int  // halo exchange steps
	hotMsgs   int  // messages per hot-spot sender
	allFigs   bool // Figures 4–7, or Figure 4 alone
}

var (
	fullScale  = scale{dim: 8, haloSteps: 6, hotMsgs: 24, allFigs: true}
	smokeScale = scale{dim: 4, haloSteps: 2, hotMsgs: 4, allFigs: false}
)

// lanes is the shard count of the torus workloads.
const lanes = 2

// hotNode is the hot-spot victim and hotFrac the share of messages aimed
// at it.
const (
	hotNode = 219
	hotFrac = 0.3
)

func workloads(sc scale) []workload {
	nodes := sc.dim * sc.dim * sc.dim
	hot := topo.NodeID(hotNode % nodes)
	return []workload{
		{name: "paper_figures", nodes: 2, build: buildPair, run: func(int64, bool) outcome {
			return runFigures(sc.allFigs)
		}},
		{name: "halo512", nodes: nodes, build: torusBuilder(sc.dim), run: func(_ int64, hp bool) outcome {
			cfg := experiments.TorusConfig{Dim: sc.dim, Bytes: 1024, Steps: sc.haloSteps,
				Radius: 2, Shards: lanes, HostProf: hp}
			return torusOutcome(experiments.TorusHalo(cfg), nodes*6*sc.haloSteps)
		}},
		{name: "hotspot512", nodes: nodes, build: torusBuilder(sc.dim), run: func(seed int64, hp bool) outcome {
			cfg := experiments.TrafficConfig{
				TorusConfig: experiments.TorusConfig{Dim: sc.dim, Bytes: 1024, Shards: lanes, HostProf: hp},
				Msgs:        sc.hotMsgs, Load: 1.0, HotFrac: hotFrac, HotNode: hot, Seed: uint64(seed),
			}
			return torusOutcome(experiments.TorusTraffic(cfg), experiments.TrafficMsgs(cfg))
		}},
	}
}

func buildPair() *machine.Machine {
	m := machine.NewPair(model.Defaults())
	m.Node(0)
	m.Node(1)
	return m
}

func torusBuilder(dim int) func() *machine.Machine {
	return func() *machine.Machine {
		tp, err := topo.XT3Torus(dim, dim, dim)
		if err != nil {
			panic(err)
		}
		m := machine.NewSharded(model.Defaults(), tp, lanes)
		for id := 0; id < tp.Nodes(); id++ {
			m.Node(topo.NodeID(id))
		}
		return m
	}
}

func torusOutcome(r experiments.TorusResult, msgs int) outcome {
	o := outcome{
		digest:   sha256.Sum256(r.Digest()),
		msgs:     msgs,
		ops:      msgs,
		failures: r.Errors,
		simPs:    r.FinishPs,
		prof:     r.HostProfile,
	}
	c, err := parseStats(r.StatsText)
	if err != nil {
		o.failures = append(o.failures, err.Error())
	}
	o.counts = c
	if o.prof != nil {
		o.events = o.prof.Events
	}
	return o
}

// figSpec is one paper figure as experiments.Figure4..7 build it: the
// pattern, the size sweep's upper end and the captions Render prints.
type figSpec struct {
	id, title, ylabel string
	pat               netpipe.Pattern
	maxBytes          int
}

var paperFigures = []figSpec{
	{"figure4", "Latency performance (paper Figure 4)", "latency (us)", netpipe.PingPong, 1 << 10},
	{"figure5", "Uni-directional bandwidth (paper Figure 5)", "bandwidth (MB/s)", netpipe.PingPong, 8 << 20},
	{"figure6", "Streaming bandwidth (paper Figure 6)", "bandwidth (MB/s)", netpipe.Stream, 8 << 20},
	{"figure7", "Bi-directional bandwidth (paper Figure 7)", "bandwidth (MB/s)", netpipe.Bidir, 8 << 20},
}

// runFigures reproduces Figures 4–7 (or Figure 4 alone) with the same
// series, configuration and legend order as experiments.Figure4..7, but
// submits all sixteen series to one worker pool and reads each two-node
// machine's counters through netpipe.Config.Observe once its series ends.
// The digest covers the rendered tables and the paper checks.
func runFigures(all bool) outcome {
	specs := paperFigures
	if !all {
		specs = specs[:1]
	}
	p := model.Defaults()
	type slot struct {
		c      counts
		events uint64
		simPs  int64
		err    error
	}
	slots := make([]slot, 4*len(specs))
	var jobs []netpipe.Job
	for fi, fs := range specs {
		cfg := netpipe.DefaultConfig()
		cfg.MaxBytes = fs.maxBytes
		pat := fs.pat
		series := []func(netpipe.Config) netpipe.Result{
			func(c netpipe.Config) netpipe.Result { return netpipe.RunPortals(p, netpipe.OpGet, pat, c) },
			func(c netpipe.Config) netpipe.Result { return netpipe.RunMPI(p, mpi.MPICH2, pat, c) },
			func(c netpipe.Config) netpipe.Result { return netpipe.RunMPI(p, mpi.MPICH1, pat, c) },
			func(c netpipe.Config) netpipe.Result { return netpipe.RunPortals(p, netpipe.OpPut, pat, c) },
		}
		for si, run := range series {
			s := &slots[4*fi+si]
			jobs = append(jobs, func() netpipe.Result {
				var m *machine.Machine
				c := cfg
				c.Observe = func(mm *machine.Machine) { m = mm }
				r := run(c)
				s.c, s.err = parseStats(m.Stats().String())
				s.events, s.simPs = m.S.Fired, int64(m.S.Now())
				return r
			})
		}
	}
	// Submit Figure 4's short series last so the pool does not end on an
	// 8 MB sweep; results return in job order either way.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = (i + 4) % len(jobs)
	}
	ordered := make([]netpipe.Job, len(jobs))
	for i, j := range order {
		ordered[i] = jobs[j]
	}
	results := make([]netpipe.Result, len(jobs))
	for i, r := range netpipe.RunConcurrent(experiments.Parallelism, ordered) {
		results[order[i]] = r
	}

	var o outcome
	figs := make([]experiments.Figure, len(specs))
	for fi, fs := range specs {
		figs[fi] = experiments.Figure{ID: fs.id, Title: fs.title, Pat: fs.pat, YLabel: fs.ylabel,
			Series: results[4*fi : 4*fi+4]}
		for _, r := range figs[fi].Series {
			for _, pt := range r.Points {
				per := 2 // ping-pong rounds and bidirectional exchanges move two messages
				if r.Pat == netpipe.Stream {
					per = 1
				}
				o.msgs += pt.Iters * per
			}
		}
	}
	for _, s := range slots {
		o.counts.add(s.c)
		o.events += s.events
		o.simPs += s.simPs
		if s.err != nil {
			o.failures = append(o.failures, s.err.Error())
		}
	}
	checks := experiments.LatencyChecks(figs[0])
	if all {
		checks = append(checks, experiments.BandwidthChecks(figs[1], figs[2], figs[3])...)
	}
	for _, c := range checks {
		if !c.Pass {
			o.failures = append(o.failures, fmt.Sprintf("paper check failed: %s (paper %s, measured %s)",
				c.Name, c.Paper, c.Measured))
		}
	}
	o.ops = o.msgs + len(checks)
	var b strings.Builder
	for _, f := range figs {
		f.Render(&b)
	}
	experiments.RenderChecks(&b, checks)
	o.digest = sha256.Sum256([]byte(b.String()))
	return o
}
