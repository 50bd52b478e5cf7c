package model

import (
	"strings"
	"testing"

	"portals3/internal/sim"
	"portals3/internal/topo"
)

func torus4(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.XT3Torus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestScheduleRoundTrip(t *testing.T) {
	spec := "linkdown:5:X+:200us:300us," +
		"stall:12:1ms:150us," +
		"restart:3:2ms:80us," +
		"burst:drop:data:0.3:500us:120us," +
		"burst:delay:fcack:0.5:700us:90us:20us," +
		"corrupt:9:800us"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 6 {
		t.Fatalf("parsed %d entries, want 6", len(s))
	}
	if got := s.String(); got != spec {
		t.Errorf("round trip:\n got %s\nwant %s", got, spec)
	}
	// A reparse of the rendering must be identical again.
	s2, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != spec {
		t.Errorf("second round trip drifted: %s", s2.String())
	}
	if err := s.Validate(torus4(t)); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestSchedulePicosecondTimes(t *testing.T) {
	s, err := ParseSchedule("stall:0:1234ps:55ns")
	if err != nil {
		t.Fatal(err)
	}
	if s[0].At != 1234*sim.Picosecond || s[0].Dur != 55*sim.Nanosecond {
		t.Fatalf("got At=%d Dur=%d", s[0].At, s[0].Dur)
	}
	if got := s.String(); got != "stall:0:1234ps:55ns" {
		t.Errorf("render: %s", got)
	}
}

func TestScheduleParseErrors(t *testing.T) {
	bad := []string{
		"linkdown:5:Q+:200us:300us",    // bad direction
		"linkdown:5:X+:200us",          // missing field
		"stall:x:200us:300us",          // bad node
		"burst:drop:data:1.5:1us:2us",  // probability out of range
		"burst:delay:data:0.5:1us:2us", // delay burst without delay
		"corrupt:1:2us:3us",            // too many fields
		"teleport:1:2us",               // unknown kind
	}
	for _, spec := range bad {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q): expected error", spec)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	tp := torus4(t)
	line, err := topo.New(4, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec string
		tp   *topo.Topology
		ok   bool
	}{
		{"stall:63:1us:2us", tp, true},
		{"stall:64:1us:2us", tp, false}, // node out of range
		{"linkdown:0:Y+:1us:2us", tp, true},
		{"linkdown:0:Y+:1us:2us", line, false}, // no Y links on a line
		{"linkdown:3:X+:1us:2us", line, false}, // mesh edge
		{"linkdown:2:X+:1us:2us", line, true},
	}
	for _, c := range cases {
		s, err := ParseSchedule(c.spec)
		if err != nil {
			t.Fatalf("parse %q: %v", c.spec, err)
		}
		err = s.Validate(c.tp)
		if c.ok && err != nil {
			t.Errorf("Validate(%q): unexpected error %v", c.spec, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Validate(%q): expected error", c.spec)
		}
	}
}

func TestScheduleRulesAndTimed(t *testing.T) {
	s, err := ParseSchedule("burst:drop:data:0.3:500us:120us,stall:1:1ms:50us")
	if err != nil {
		t.Fatal(err)
	}
	rules := s.Rules()
	if len(rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(rules))
	}
	r := rules[0]
	if r.After != 500*sim.Microsecond || r.Until != 620*sim.Microsecond {
		t.Errorf("burst window [%v, %v), want [500us, 620us)", r.After, r.Until)
	}
	timed := s.Timed()
	if len(timed) != 1 || timed[0].Kind != SchedStall {
		t.Errorf("Timed() = %v", timed)
	}
	if s.End() != 1050*sim.Microsecond {
		t.Errorf("End() = %v, want 1.05ms", s.End())
	}
	if s.StallWindow() != 1740*sim.Microsecond {
		t.Errorf("StallWindow() = %v, want 2x120us + 1.5ms", s.StallWindow())
	}
}

func TestGenScheduleDeterministicAndValid(t *testing.T) {
	tp := torus4(t)
	span := 2 * sim.Millisecond
	a := GenSchedule(7, tp, 10, span)
	b := GenSchedule(7, tp, 10, span)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a.String(), b.String())
	}
	if len(a) != 10 {
		t.Fatalf("generated %d entries, want 10", len(a))
	}
	if err := a.Validate(tp); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for _, e := range a {
		if e.Kind == SchedCorrupt {
			t.Fatalf("generator emitted a corrupt entry: %s", e)
		}
	}
	if c := GenSchedule(8, tp, 10, span); c.String() == a.String() {
		t.Errorf("different seeds produced identical schedules")
	}
	// Generated schedules round-trip through the grammar.
	re, err := ParseSchedule(a.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if re.String() != a.String() {
		t.Errorf("generated schedule does not round-trip:\n%s\n%s", a.String(), re.String())
	}
	// A line topology only has X links; linkdown entries must respect it.
	line, err := topo.New(6, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := GenSchedule(3, line, 8, span)
	if err := ls.Validate(line); err != nil {
		t.Fatalf("line schedule invalid: %v", err)
	}
	for _, e := range ls {
		if e.Kind == SchedLinkDown && !strings.HasPrefix(e.Dir.String(), "X") {
			t.Errorf("line schedule downed a %s link", e.Dir)
		}
	}
}
