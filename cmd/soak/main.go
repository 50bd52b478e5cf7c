// Command soak drives chaos soak campaigns: seeded virtual-time fault
// schedules (link flaps, node stalls, firmware restarts, burst loss) over
// the standard workloads, on the sequential and sharded kernels, asserting
// the soak invariants — balanced fault ledger, zero stall/panic/ledger
// reports, intact ordered delivery, and byte-identical summaries at every
// shard count.
//
// Suite mode (the default) sweeps every workload over a seed range:
//
//	soak                      # 3 seeds per workload, shards 1 and 4
//	soak -short               # 1 seed per workload (the CI gate)
//	soak -seeds 10 -out SOAK_trend.json
//
// A failing campaign is auto-bisected to a minimal still-failing schedule
// (ddmin over the schedule entries, memoized), re-verified standalone, and
// rendered as a ready-to-paste repro command; flight-recorder dumps and
// the minimal schedule are written under -artifacts. Every arm also
// writes its counter table and host-execution profile there
// (WORKLOAD-seedN-shardsM.stats.txt and .hostprof.json; render with
// p3stat).
//
// Replay mode runs one explicit schedule — the bisector's output:
//
//	soak -workload gbn-stream -shards 2 -schedule 'corrupt:2:300us'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"portals3/internal/experiments"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/soak"
)

// trendRecord is one campaign's row in the trend JSON. wall_ms and
// peak_heap_bytes are host-side (summed and maxed across the shard arms):
// they track soak-time regressions across runs and take no part in the
// shard-invariance comparison.
type trendRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Shards        string `json:"shards"`
	FinishPs      int64  `json:"finish_ps"`
	Msgs          int    `json:"msgs"`
	Injected      uint64 `json:"injected"`
	Recovered     uint64 `json:"recovered"`
	Condemned     uint64 `json:"condemned"`
	Open          uint64 `json:"open"`
	Failed        bool   `json:"failed"`
	WallMs        int64  `json:"wall_ms"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// trendFile is the cumulative trend document: one entry appended per soak
// invocation, capped to the most recent 50.
type trendFile struct {
	Runs []struct {
		Run       int           `json:"run"`
		Campaigns []trendRecord `json:"campaigns"`
	} `json:"runs"`
}

func fatalf(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "single workload: "+strings.Join(soak.Workloads, ", ")+" (default: all)")
	seed := flag.Int64("seed", 1, "first campaign seed")
	seeds := flag.Int("seeds", 3, "seeds per workload in suite mode")
	entries := flag.Int("entries", 4, "generated schedule length per campaign")
	shardsFlag := flag.String("shards", "1,4", "comma-separated shard counts; every count must produce a byte-identical summary")
	schedule := flag.String("schedule", "", "explicit fault schedule (replay mode; requires -workload)")
	short := flag.Bool("short", false, "one seed per workload (the CI gate)")
	plant := flag.Bool("plant", false, "plant a ledger corruption in every campaign — the failure-detection self-check; campaigns must FAIL and bisect to the planted entry")
	bisect := flag.Bool("bisect", true, "auto-bisect failing campaigns to a minimal schedule")
	out := flag.String("out", "", "append the run's campaign records to this trend JSON file")
	artifacts := flag.String("artifacts", "soak_artifacts", "directory for run artifacts: each arm's counter table and host profile, failure dumps, minimal schedules")
	progress := flag.Bool("progress", false, "print live host-execution progress lines to stderr during long campaigns")
	flag.Parse()

	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		fatalf(2, "soak: %v", err)
	}
	if *short {
		*seeds = 1
	}

	if *schedule != "" {
		if *workload == "" {
			fatalf(2, "soak: -schedule requires -workload")
		}
		sched, err := model.ParseSchedule(*schedule)
		if err != nil {
			fatalf(2, "soak: %v", err)
		}
		c := soak.Campaign{Workload: *workload, Shards: shardCounts[0], Schedule: sched, FlightRec: true}
		if *progress {
			c.Progress = printProgress
		}
		if _, err := soak.Resolve(c); err != nil {
			fatalf(2, "%v", err)
		}
		r := soak.Run(c)
		fmt.Print(r.Summary())
		writeBundle(*artifacts, fmt.Sprintf("%s-replay-shards%d", c.Workload, c.Shards), r.Bundle)
		if r.Failed() {
			os.Exit(1)
		}
		return
	}

	workloads := soak.Workloads
	if *workload != "" {
		workloads = []string{*workload}
	}

	var records []trendRecord
	failed := false
	for _, w := range workloads {
		for s := *seed; s < *seed+int64(*seeds); s++ {
			c := soak.Campaign{Workload: w, Seed: s, Entries: *entries}
			if *plant {
				sched, err := soak.Resolve(c)
				if err != nil {
					fatalf(2, "%v", err)
				}
				c.Schedule = append(sched, model.ScheduleEntry{
					Kind: model.SchedCorrupt, Node: 2, At: 300 * sim.Microsecond,
				})
			}
			if *progress {
				c.Progress = printProgress
			}
			ok, rec := runArms(c, shardCounts, *bisect, *artifacts)
			records = append(records, rec)
			if !ok {
				failed = true
			}
		}
	}
	if *out != "" {
		if err := appendTrend(*out, records); err != nil {
			fatalf(1, "soak: writing %s: %v", *out, err)
		}
		fmt.Printf("trend appended to %s (%d campaigns)\n", *out, len(records))
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("soak: %d campaigns passed (%s; shards %s)\n",
		len(records), strings.Join(workloads, ", "), *shardsFlag)
}

// runArms runs one (workload, seed) campaign at every shard count,
// requires byte-identical summaries across arms, writes each arm's bundle
// (counter table and host profile) under artifacts, and triages any
// failure.
// The trend record's host-side columns aggregate across arms: wall-clock
// sums (total soak time for the campaign), peak heap takes the max.
func runArms(c soak.Campaign, shardCounts []int, bisect bool, artifacts string) (bool, trendRecord) {
	var ref *soak.Result
	var refSummary string
	ok := true
	var wallNs int64
	var peakHeap uint64
	for _, n := range shardCounts {
		cc := c
		cc.Shards = n
		r := soak.Run(cc)
		wallNs += r.WallNs
		if r.PeakHeapBytes > peakHeap {
			peakHeap = r.PeakHeapBytes
		}
		fmt.Printf("campaign %s seed=%d shards=%d: ", c.Workload, c.Seed, n)
		if r.Failed() {
			fmt.Printf("FAIL (%d invariant violations)\n", len(r.Errors))
			ok = false
		} else {
			fmt.Printf("pass (finish=%dus injected=%d)\n", r.FinishPs/1e6, r.Ledger.Injected())
		}
		writeBundle(artifacts, fmt.Sprintf("%s-seed%d-shards%d", c.Workload, c.Seed, n), r.Bundle)
		if ref == nil {
			ref, refSummary = &r, r.Summary()
		} else if got := r.Summary(); got != refSummary {
			ok = false
			fmt.Printf("campaign %s seed=%d: summary DIVERGES between shards=%d and shards=%d:\n--- shards=%d\n%s--- shards=%d\n%s",
				c.Workload, c.Seed, shardCounts[0], n, shardCounts[0], refSummary, n, got)
		}
	}
	rec := trendRecord{
		Workload: c.Workload, Seed: c.Seed,
		Shards:   shardList(shardCounts),
		FinishPs: ref.FinishPs, Msgs: ref.Msgs,
		Injected: ref.Ledger.Injected(), Recovered: ref.Ledger.Recovered,
		Condemned: ref.Ledger.Condemned, Open: ref.Ledger.Open(),
		Failed: !ok,
		WallMs: wallNs / 1e6, PeakHeapBytes: peakHeap,
	}
	if !ok {
		fmt.Print(refSummary)
		if bisect {
			triage(c, shardCounts[0], artifacts)
		}
	}
	return ok, rec
}

// triage bisects a failing campaign and renders the minimal reproduction.
func triage(c soak.Campaign, shards int, artifacts string) {
	cc := c
	cc.Shards = shards
	out, err := soak.Bisect(cc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: bisect: %v\n", err)
		return
	}
	if !out.Failed {
		fmt.Println("bisect: failure did not reproduce under bisection (summary divergence only?)")
		return
	}
	fmt.Printf("bisect: %d trials, %d of %d schedule entries remain", out.Trials, len(out.Minimal), len(out.Full))
	if out.Verified {
		fmt.Printf(" (re-verified failing standalone)\n")
	} else {
		fmt.Printf(" (WARNING: minimal schedule passed on re-verification)\n")
	}
	fmt.Printf("minimal schedule: %s\n", out.Minimal)
	fmt.Printf("repro: %s\n", out.Repro(cc))
	if np, ok := soak.NetpipeRepro(out.Minimal); ok {
		fmt.Printf("repro (netpipe pair): %s\n", np)
	}
	base := fmt.Sprintf("%s-seed%d", c.Workload, c.Seed)
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return
	}
	schedPath := filepath.Join(artifacts, base+".minimal.schedule")
	if err := os.WriteFile(schedPath, []byte(out.Minimal.String()+"\n"), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
	} else {
		fmt.Printf("minimal schedule written to %s\n", schedPath)
	}
	writeBundle(artifacts, base, out.Result.Bundle)
}

// printProgress renders one live host-execution snapshot on stderr.
func printProgress(hp sim.HostProgress) { fmt.Fprintln(os.Stderr, "progress:", hp) }

// writeBundle lays one run's artifacts out under the artifacts directory,
// every file name prefixed with base: base.stats.txt, base.hostprof.json,
// and with the flight recorder on base.run.p3dump plus one dump per
// failure report.
func writeBundle(artifacts, base string, b experiments.Bundle) {
	paths, err := b.Write(artifacts, base+".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
	}
	if len(paths) > 0 {
		fmt.Printf("%d artifacts written to %s/%s.* (render with p3stat, dumps with p3dump)\n", len(paths), artifacts, base)
	}
}

func shardList(counts []int) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// appendTrend appends this run's records to the trend file, keeping the
// most recent 50 runs.
func appendTrend(path string, records []trendRecord) error {
	var tf trendFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &tf); err != nil {
			return fmt.Errorf("existing trend file unreadable: %v", err)
		}
	}
	run := 1
	if n := len(tf.Runs); n > 0 {
		run = tf.Runs[n-1].Run + 1
	}
	tf.Runs = append(tf.Runs, struct {
		Run       int           `json:"run"`
		Campaigns []trendRecord `json:"campaigns"`
	}{Run: run, Campaigns: records})
	if len(tf.Runs) > 50 {
		tf.Runs = tf.Runs[len(tf.Runs)-50:]
	}
	b, err := json.MarshalIndent(&tf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
