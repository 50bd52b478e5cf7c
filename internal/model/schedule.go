// The declarative fault schedule: a timed plan of link outages, node
// stalls, rolling firmware restarts and correlated fault bursts, expressed
// as data rather than as runtime calls against the fault plane. Scheduling
// faults declaratively is what lets sharded machines run them — the machine
// turns each entry into pre-scheduled lane-local events at construction
// time, so no cross-lane call ever mutates a plane mid-run — and what lets
// the soak driver's bisector treat a failing campaign as a list to be
// minimized (DESIGN.md §13).
//
// Every entry renders to (and parses from) a canonical spec string, so a
// minimal reproducing schedule is a copy-pasteable command-line argument.
package model

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"portals3/internal/sim"
	"portals3/internal/topo"
)

// ScheduleKind selects what a schedule entry does when its time arrives.
type ScheduleKind int

// Schedule entry kinds.
const (
	// SchedLinkDown takes the directed link leaving Node in direction Dir
	// out of service for Dur; messages whose fixed path crosses it are
	// dropped at injection meanwhile.
	SchedLinkDown ScheduleKind = iota
	// SchedStall holds every injection destined to Node for Dur, releasing
	// the backlog in arrival order — a hung NIC that later resumes.
	SchedStall
	// SchedRestart models a firmware restart of Node: inbound traffic is
	// stalled and every link leaving the node is down for Dur. Traffic
	// routed through the node's router is lost too, as on the real machine.
	SchedRestart
	// SchedBurst arms Rule for the window [At, At+Dur) — a correlated
	// burst of drops, duplicates or delays rather than a steady rate.
	SchedBurst
	// SchedCorrupt opens one fault-ledger entry on Node that nothing ever
	// closes — planted silent data loss. The quiescence audit must report
	// it; the soak driver uses corrupt entries to prove the harness and the
	// bisector actually detect failures.
	SchedCorrupt
)

func (k ScheduleKind) String() string {
	return [...]string{"linkdown", "stall", "restart", "burst", "corrupt"}[k]
}

// ScheduleEntry is one timed fault. Which fields matter depends on Kind:
// linkdown uses Node+Dir, stall/restart/corrupt use Node, burst uses Rule
// (whose After/Until are derived from At/Dur when the entry is compiled).
type ScheduleEntry struct {
	Kind ScheduleKind
	At   sim.Time // activation time
	Dur  sim.Time // window length; unused by corrupt
	Node int      // affected node (linkdown/stall/restart/corrupt)
	Dir  topo.Dir // downed link's direction (linkdown only)
	Rule FaultRule
}

// String renders the entry in the schedule grammar (see ParseSchedule).
func (e ScheduleEntry) String() string {
	switch e.Kind {
	case SchedLinkDown:
		return fmt.Sprintf("linkdown:%d:%s:%s:%s", e.Node, e.Dir, fmtDur(e.At), fmtDur(e.Dur))
	case SchedStall:
		return fmt.Sprintf("stall:%d:%s:%s", e.Node, fmtDur(e.At), fmtDur(e.Dur))
	case SchedRestart:
		return fmt.Sprintf("restart:%d:%s:%s", e.Node, fmtDur(e.At), fmtDur(e.Dur))
	case SchedBurst:
		s := fmt.Sprintf("burst:%s:%s:%s:%s:%s", e.Rule.Kind, e.Rule.Frame,
			strconv.FormatFloat(e.Rule.Prob, 'g', -1, 64), fmtDur(e.At), fmtDur(e.Dur))
		if e.Rule.Kind == FaultDelay || e.Rule.Kind == FaultReorder {
			s += ":" + fmtDur(e.Rule.Delay)
		}
		return s
	case SchedCorrupt:
		return fmt.Sprintf("corrupt:%d:%s", e.Node, fmtDur(e.At))
	}
	panic(fmt.Sprintf("model: unknown schedule kind %d", int(e.Kind)))
}

// FaultSchedule is an ordered timed-fault plan. The order is significant
// only for rendering; activation order is by At.
type FaultSchedule []ScheduleEntry

// String renders the schedule as a parseable comma-separated spec — the
// canonical byte representation bisection results are compared by.
func (s FaultSchedule) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Rules compiles the schedule's burst entries to fault rules windowed over
// [At, At+Dur); the fabric installs them on its planes at construction.
func (s FaultSchedule) Rules() []FaultRule {
	var out []FaultRule
	for _, e := range s {
		if e.Kind != SchedBurst {
			continue
		}
		r := e.Rule
		r.After, r.Until = e.At, e.At+e.Dur
		out = append(out, r)
	}
	return out
}

// Timed returns the entries the machine must turn into scheduled events
// (everything except bursts, which compile to windowed rules instead).
func (s FaultSchedule) Timed() []ScheduleEntry {
	var out []ScheduleEntry
	for _, e := range s {
		if e.Kind != SchedBurst {
			out = append(out, e)
		}
	}
	return out
}

// End returns the time the last entry's window closes — the earliest
// quiescence horizon a run carrying this schedule can reach.
func (s FaultSchedule) End() sim.Time {
	var end sim.Time
	for _, e := range s {
		if t := e.At + e.Dur; t > end {
			end = t
		}
	}
	return end
}

// StallWindow sizes a stall detector safely above every blackout in the
// schedule: twice the longest window plus 1.5 ms. A detector window
// shorter than a scheduled outage would report the fault plan itself as a
// hang. An empty schedule gets the bare 1.5 ms.
func (s FaultSchedule) StallWindow() sim.Time {
	var d sim.Time
	for _, e := range s {
		if e.Dur > d {
			d = e.Dur
		}
	}
	return 2*d + 1500*sim.Microsecond
}

// Validate checks every entry against a topology: node ids in range,
// linkdown directions that exist at their node, positive windows, sane
// burst rules. A schedule that validates applies identically at every
// shard count.
func (s FaultSchedule) Validate(tp *topo.Topology) error {
	for i, e := range s {
		if e.At < 0 {
			return fmt.Errorf("schedule entry %d (%s): negative activation time", i, e)
		}
		switch e.Kind {
		case SchedLinkDown, SchedStall, SchedRestart, SchedCorrupt:
			if e.Node < 0 || e.Node >= tp.Nodes() {
				return fmt.Errorf("schedule entry %d (%s): node %d outside topology of %d nodes",
					i, e, e.Node, tp.Nodes())
			}
		}
		switch e.Kind {
		case SchedLinkDown:
			if _, ok := tp.Neighbor(topo.NodeID(e.Node), e.Dir); !ok {
				return fmt.Errorf("schedule entry %d (%s): node %d has no %s link",
					i, e, e.Node, e.Dir)
			}
			fallthrough
		case SchedStall, SchedRestart:
			if e.Dur <= 0 {
				return fmt.Errorf("schedule entry %d (%s): window must be positive", i, e)
			}
		case SchedBurst:
			if e.Dur <= 0 {
				return fmt.Errorf("schedule entry %d (%s): window must be positive", i, e)
			}
			if e.Rule.Prob <= 0 || e.Rule.Prob > 1 {
				return fmt.Errorf("schedule entry %d (%s): probability must be in (0, 1]", i, e)
			}
			if (e.Rule.Kind == FaultDelay || e.Rule.Kind == FaultReorder) && e.Rule.Delay <= 0 {
				return fmt.Errorf("schedule entry %d (%s): %s burst needs a duration",
					i, e, e.Rule.Kind)
			}
		}
	}
	return nil
}

// ParseSchedule parses the schedule spec: comma-separated entries of
//
//	linkdown:NODE:DIR:AT:DUR      DIR is X+ X- Y+ Y- Z+ Z-
//	stall:NODE:AT:DUR
//	restart:NODE:AT:DUR
//	burst:KIND:FRAME:PROB:AT:DUR[:DELAY]   (KIND/FRAME as in ParseFaults)
//	corrupt:NODE:AT
//
// Times are Go durations ("200us", "1.5ms") with a "ps" extension for
// picosecond precision. FaultSchedule.String renders this same grammar, so
// schedules round-trip.
func ParseSchedule(spec string) (FaultSchedule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out FaultSchedule
	for _, item := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		e, err := parseEntry(item, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func parseEntry(item string, fields []string) (ScheduleEntry, error) {
	var e ScheduleEntry
	bad := func(format string, args ...interface{}) (ScheduleEntry, error) {
		return ScheduleEntry{}, fmt.Errorf("schedule entry %q: %s", item, fmt.Sprintf(format, args...))
	}
	if len(fields) < 2 {
		return bad("want kind:...")
	}
	switch fields[0] {
	case "linkdown":
		if len(fields) != 5 {
			return bad("want linkdown:NODE:DIR:AT:DUR")
		}
		e.Kind = SchedLinkDown
		var err error
		if e.Node, err = strconv.Atoi(fields[1]); err != nil {
			return bad("bad node %q", fields[1])
		}
		if e.Dir, err = parseDir(fields[2]); err != nil {
			return bad("%v", err)
		}
		if e.At, err = parseDur(fields[3]); err != nil {
			return bad("bad time %q", fields[3])
		}
		if e.Dur, err = parseDur(fields[4]); err != nil {
			return bad("bad duration %q", fields[4])
		}
	case "stall", "restart":
		if len(fields) != 4 {
			return bad("want %s:NODE:AT:DUR", fields[0])
		}
		e.Kind = SchedStall
		if fields[0] == "restart" {
			e.Kind = SchedRestart
		}
		var err error
		if e.Node, err = strconv.Atoi(fields[1]); err != nil {
			return bad("bad node %q", fields[1])
		}
		if e.At, err = parseDur(fields[2]); err != nil {
			return bad("bad time %q", fields[2])
		}
		if e.Dur, err = parseDur(fields[3]); err != nil {
			return bad("bad duration %q", fields[3])
		}
	case "burst":
		if len(fields) < 6 {
			return bad("want burst:KIND:FRAME:PROB:AT:DUR[:DELAY]")
		}
		e.Kind = SchedBurst
		// Reuse the fault-rule grammar for KIND:FRAME:PROB[:DELAY].
		ruleFields := append([]string{}, fields[1:4]...)
		ruleFields = append(ruleFields, fields[6:]...)
		rules, err := ParseFaults(strings.Join(ruleFields, ":"))
		if err != nil {
			return bad("%v", err)
		}
		e.Rule = rules[0]
		if e.At, err = parseDur(fields[4]); err != nil {
			return bad("bad time %q", fields[4])
		}
		if e.Dur, err = parseDur(fields[5]); err != nil {
			return bad("bad duration %q", fields[5])
		}
	case "corrupt":
		if len(fields) != 3 {
			return bad("want corrupt:NODE:AT")
		}
		e.Kind = SchedCorrupt
		var err error
		if e.Node, err = strconv.Atoi(fields[1]); err != nil {
			return bad("bad node %q", fields[1])
		}
		if e.At, err = parseDur(fields[2]); err != nil {
			return bad("bad time %q", fields[2])
		}
	default:
		return bad("unknown kind %q", fields[0])
	}
	return e, nil
}

// parseDir parses a router port name: X+ X- Y+ Y- Z+ Z- (case-insensitive,
// sign-first tolerated).
func parseDir(s string) (topo.Dir, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	if len(t) == 2 && (t[0] == '+' || t[0] == '-') {
		t = t[1:] + t[:1]
	}
	if len(t) != 2 {
		return topo.Dir{}, fmt.Errorf("bad direction %q (want X+ X- Y+ Y- Z+ Z-)", s)
	}
	var d topo.Dir
	switch t[0] {
	case 'X':
		d.Axis = topo.X
	case 'Y':
		d.Axis = topo.Y
	case 'Z':
		d.Axis = topo.Z
	default:
		return topo.Dir{}, fmt.Errorf("bad direction %q (want X+ X- Y+ Y- Z+ Z-)", s)
	}
	switch t[1] {
	case '+':
		d.Sign = 1
	case '-':
		d.Sign = -1
	default:
		return topo.Dir{}, fmt.Errorf("bad direction %q (want X+ X- Y+ Y- Z+ Z-)", s)
	}
	return d, nil
}

// fmtDur renders a sim.Time exactly: the largest unit that divides it, down
// to raw picoseconds ("ps" is a grammar extension; Go durations stop at ns).
func fmtDur(t sim.Time) string {
	switch {
	case t >= sim.Millisecond && t%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", t/sim.Millisecond)
	case t >= sim.Microsecond && t%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	case t >= sim.Nanosecond && t%sim.Nanosecond == 0:
		return fmt.Sprintf("%dns", t/sim.Nanosecond)
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// parseDur parses fmtDur's output plus any Go duration string.
func parseDur(s string) (sim.Time, error) {
	if strings.HasSuffix(s, "ps") && !strings.HasSuffix(s, "ns") {
		n, err := strconv.ParseInt(strings.TrimSuffix(s, "ps"), 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		return sim.Time(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
}

// GenSchedule derives a chaos schedule from a campaign seed: n entries of
// mixed kinds over the window [span/8, span], quantized to whole
// microseconds, every (node, dir) drawn valid for the topology and windows
// on the same resource kept disjoint (overlapping stall windows would merge
// — deterministic but confusing to bisect). The generator never emits
// corrupt entries: a generated campaign is expected to pass, and planted
// failures are planted explicitly.
//
// All randomness comes from a private PRNG seeded by seed, so (seed, tp, n,
// span) fully determines the schedule — the soak driver's reproducibility
// contract.
func GenSchedule(seed int64, tp *topo.Topology, n int, span sim.Time) FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	if span < 100*sim.Microsecond {
		span = 100 * sim.Microsecond
	}
	maxDur := span / 6
	if maxDur > 400*sim.Microsecond {
		maxDur = 400 * sim.Microsecond
	}
	if maxDur < 20*sim.Microsecond {
		maxDur = 20 * sim.Microsecond
	}
	quant := func(t sim.Time) sim.Time {
		q := t / sim.Microsecond * sim.Microsecond
		if q < sim.Microsecond {
			q = sim.Microsecond
		}
		return q
	}
	lo, hi := span/8, span-maxDur
	if hi <= lo {
		hi = lo + sim.Microsecond
	}
	type window struct{ from, to sim.Time }
	busy := make(map[string][]window)
	disjoint := func(key string, from, to sim.Time) bool {
		for _, w := range busy[key] {
			if from < w.to && w.from < to {
				return false
			}
		}
		return true
	}
	var out FaultSchedule
	for tries := 0; len(out) < n && tries < 20*n+100; tries++ {
		e := ScheduleEntry{
			At:  quant(lo + sim.Time(rng.Int63n(int64(hi-lo)))),
			Dur: quant(20*sim.Microsecond + sim.Time(rng.Int63n(int64(maxDur-20*sim.Microsecond+1)))),
		}
		node := rng.Intn(tp.Nodes())
		var key string
		switch k := rng.Intn(100); {
		case k < 30:
			e.Kind = SchedLinkDown
			e.Node = node
			dirs := validDirs(tp, topo.NodeID(node))
			e.Dir = dirs[rng.Intn(len(dirs))]
			key = fmt.Sprintf("link:%d:%s", e.Node, e.Dir)
		case k < 55:
			e.Kind = SchedStall
			e.Node = node
			key = fmt.Sprintf("node:%d", e.Node)
		case k < 70:
			e.Kind = SchedRestart
			e.Node = node
			key = fmt.Sprintf("node:%d", e.Node)
		default:
			e.Kind = SchedBurst
			switch rng.Intn(3) {
			case 0:
				e.Rule = NewFault(FaultDrop, FrameData, 0.25+rng.Float64()/2)
			case 1:
				e.Rule = NewFault(FaultDrop, FrameFcAck, 0.25+rng.Float64()/2)
			case 2:
				e.Rule = NewFault(FaultDelay, FrameData, 0.25+rng.Float64()/2).
					WithDelay(quant(5*sim.Microsecond + sim.Time(rng.Int63n(int64(40*sim.Microsecond)))))
			}
			// Trim the printed probability so the spec stays readable.
			e.Rule.Prob = float64(int(e.Rule.Prob*100)) / 100
			key = "burst"
		}
		if !disjoint(key, e.At, e.At+e.Dur) {
			continue // deterministic redraw
		}
		busy[key] = append(busy[key], window{e.At, e.At + e.Dur})
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// validDirs lists the router ports of node that lead somewhere — all six on
// a full torus, fewer at mesh edges.
func validDirs(tp *topo.Topology, node topo.NodeID) []topo.Dir {
	all := []topo.Dir{
		{Axis: topo.X, Sign: 1}, {Axis: topo.X, Sign: -1},
		{Axis: topo.Y, Sign: 1}, {Axis: topo.Y, Sign: -1},
		{Axis: topo.Z, Sign: 1}, {Axis: topo.Z, Sign: -1},
	}
	var out []topo.Dir
	for _, d := range all {
		if _, ok := tp.Neighbor(node, d); ok {
			out = append(out, d)
		}
	}
	return out
}
