package soak

import (
	"strings"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
)

// campaignSeed picks a seed per workload whose generated schedule provably
// overlaps traffic (injects at least one fault) — pinned so the assertions
// below stay meaningful.
func campaignSeed(workload string) int64 {
	if workload == TorusHalo {
		return 3
	}
	return 1
}

func TestCampaignsPassAndReshardIdentically(t *testing.T) {
	// The core soak contract: every workload survives its seeded fault
	// campaign with a balanced ledger and no failure reports, the schedule
	// actually injected faults, and the summary is byte-identical at
	// shards=1 and shards=4.
	for _, w := range Workloads {
		seed := campaignSeed(w)
		var ref string
		for _, shards := range []int{1, 4} {
			r := Run(Campaign{Workload: w, Seed: seed, Shards: shards})
			if r.Failed() {
				t.Fatalf("%s shards=%d failed:\n%s", w, shards, r.Summary())
			}
			if r.Ledger.Injected() == 0 {
				t.Errorf("%s shards=%d: schedule injected no faults", w, shards)
			}
			if r.Ledger.Open() != 0 {
				t.Errorf("%s shards=%d: ledger open = %d", w, shards, r.Ledger.Open())
			}
			if shards == 1 {
				ref = r.Summary()
			} else if got := r.Summary(); got != ref {
				t.Errorf("%s: summary diverges between shard counts:\n--- shards=1\n%s--- shards=%d\n%s", w, ref, shards, got)
			}
		}
	}
}

func TestSameSeedSameSummary(t *testing.T) {
	// Same seed, same campaign, two independent runs: bit-identical.
	c := Campaign{Workload: GbnStream, Seed: 7, Shards: 2}
	a, b := Run(c), Run(c)
	if a.Summary() != b.Summary() {
		t.Errorf("same-seed reruns diverged:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

// plantedCampaign is a campaign whose schedule carries an explicit corrupt
// entry — planted silent data loss the ledger audit must catch — on top of
// seed-generated noise entries.
func plantedCampaign(shards int) Campaign {
	c := Campaign{Workload: GbnStream, Seed: 5, Shards: shards}
	sched, err := Resolve(c)
	if err != nil {
		panic(err)
	}
	c.Schedule = append(sched, model.ScheduleEntry{
		Kind: model.SchedCorrupt, Node: 2, At: 300 * sim.Microsecond,
	})
	return c
}

func TestPlantedCorruptionFailsTheCampaign(t *testing.T) {
	r := Run(plantedCampaign(1))
	if !r.Failed() {
		t.Fatalf("planted ledger corruption not detected:\n%s", r.Summary())
	}
	if r.Ledger.Open() == 0 {
		t.Error("planted corruption left no open ledger entry")
	}
}

func TestBisectionDeterministicAndMinimal(t *testing.T) {
	// The planted failure must auto-bisect to the same minimal schedule —
	// byte-identical — across independent runs and across shard counts,
	// and the minimal schedule must re-verify as failing standalone.
	var ref string
	for _, shards := range []int{1, 2, 4} {
		for rerun := 0; rerun < 2; rerun++ {
			c := plantedCampaign(shards)
			out, err := Bisect(c)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Failed {
				t.Fatalf("shards=%d: planted campaign did not fail", shards)
			}
			if !out.Verified {
				t.Fatalf("shards=%d: minimal schedule did not fail standalone:\n%s", shards, out.Result.Summary())
			}
			min := out.Minimal.String()
			if ref == "" {
				ref = min
			} else if min != ref {
				t.Fatalf("shards=%d rerun=%d: minimal schedule diverged: %q vs %q", shards, rerun, min, ref)
			}
			if len(out.Minimal) != 1 || out.Minimal[0].Kind != model.SchedCorrupt {
				t.Errorf("minimal schedule is not the planted corrupt entry alone: %q", min)
			}
			if out.Trials > 16 {
				t.Errorf("bisection took %d trials for a 1-minimal cause in a %d-entry schedule", out.Trials, len(c.Schedule))
			}
		}
	}
	if !strings.Contains(ref, "corrupt:2:") {
		t.Errorf("minimal schedule %q does not pin the planted corruption", ref)
	}
}

func TestBisectOnPassingCampaignIsANoop(t *testing.T) {
	out, err := Bisect(Campaign{Workload: GbnStream, Seed: campaignSeed(GbnStream), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed || out.Verified || len(out.Minimal) != 0 {
		t.Errorf("passing campaign produced a bisection: %+v", out)
	}
}

func TestReproCommands(t *testing.T) {
	c := Campaign{Workload: GbnStream, Shards: 2}
	sched, _ := model.ParseSchedule("corrupt:1:300us")
	cmd := ReproCommand(c, sched)
	want := "go run ./cmd/soak -workload gbn-stream -shards 2 -schedule 'corrupt:1:300us'"
	if cmd != want {
		t.Errorf("ReproCommand = %q, want %q", cmd, want)
	}
	// A schedule confined to nodes 0-1 on X links replays on the two-node
	// netpipe machine; one touching node 3 does not.
	np, ok := NetpipeRepro(sched)
	if !ok || !strings.Contains(np, "-schedule 'corrupt:1:300us'") {
		t.Errorf("NetpipeRepro = %q, %v", np, ok)
	}
	far, _ := model.ParseSchedule("stall:3:100us:50us")
	if _, ok := NetpipeRepro(far); ok {
		t.Error("NetpipeRepro accepted a schedule outside the pair topology")
	}
}

func TestResolveRejectsBadCampaigns(t *testing.T) {
	if _, err := Resolve(Campaign{Workload: "no-such-workload"}); err == nil {
		t.Error("unknown workload not rejected")
	}
	bad, _ := model.ParseSchedule("linkdown:0:Y+:100us:50us") // no Y links on a line
	if _, err := Resolve(Campaign{Workload: GbnStream, Schedule: bad}); err == nil {
		t.Error("schedule invalid for the workload topology not rejected")
	}
}

func TestFlightRecorderArtifactsOnFailure(t *testing.T) {
	c := plantedCampaign(1)
	c.FlightRec = true
	r := Run(c)
	if !r.Failed() {
		t.Fatal("planted campaign passed")
	}
	if len(r.DumpBytes) == 0 {
		t.Error("no end-of-run dump captured")
	}
}
