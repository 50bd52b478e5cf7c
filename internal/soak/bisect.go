// Schedule auto-bisection: when a campaign fails, shrink its fault
// schedule to a minimal still-failing reproduction. The algorithm is
// ddmin (Zeller's delta debugging): first try halves, then complements of
// progressively finer chunkings, keeping any subset that still fails —
// which both "halve" and "delta-debug" phases of classic bisection fall
// out of. Every trial run is a full campaign at the same shards and seed,
// memoized by the canonical schedule string; because campaign outcomes
// are shard-invariant and deterministic, the same failing seed bisects to
// a byte-identical minimal schedule on every run at every shard count.
package soak

import (
	"fmt"

	"portals3/internal/model"
	"portals3/internal/topo"
)

// BisectOutcome is the result of minimizing one failing campaign.
type BisectOutcome struct {
	// Full is the campaign's resolved schedule; Failed reports whether it
	// failed at all (when false, nothing was bisected).
	Full   model.FaultSchedule
	Failed bool

	// Minimal is the smallest still-failing schedule found; Verified is the
	// standalone re-run confirmation that it fails on its own, and Result
	// is that re-run's outcome (with flight-recorder artifacts).
	Minimal  model.FaultSchedule
	Verified bool
	Result   Result

	// Trials counts distinct schedules executed (memoized repeats excluded).
	Trials int
}

// Repro renders the ready-to-paste reproduction command for the minimal
// schedule.
func (o BisectOutcome) Repro(c Campaign) string {
	return ReproCommand(c, o.Minimal)
}

// Bisect resolves the campaign's schedule, confirms it fails, minimizes it
// with ddmin, and re-verifies the minimal schedule standalone (with the
// flight recorder on, so the outcome carries p3dump artifacts).
func Bisect(c Campaign) (BisectOutcome, error) {
	full, err := Resolve(c)
	if err != nil {
		return BisectOutcome{}, err
	}
	out := BisectOutcome{Full: full}
	memo := make(map[string]bool)
	fails := func(s model.FaultSchedule) bool {
		key := s.String()
		if v, ok := memo[key]; ok {
			return v
		}
		cc := c
		cc.Schedule = s
		if len(s) == 0 {
			// Resolve treats an empty schedule as "generate from seed";
			// an empty trial means "no faults at all", which by the soak
			// invariants cannot fail.
			memo[key] = false
			return false
		}
		r := Run(cc)
		memo[key] = r.Failed()
		out.Trials++
		return r.Failed()
	}
	if !fails(full) {
		return out, nil
	}
	out.Failed = true
	out.Minimal = ddmin(full, fails)

	// Re-verify: the minimal schedule must fail standalone, not only as a
	// memoized verdict inside the search.
	cc := c
	cc.Schedule = out.Minimal
	cc.FlightRec = true
	out.Result = Run(cc)
	out.Verified = out.Result.Failed()
	out.Trials++
	return out, nil
}

// ddmin minimizes s under the fails predicate: the returned schedule fails,
// and removing any single chunk the final granularity tried no longer does.
func ddmin(s model.FaultSchedule, fails func(model.FaultSchedule) bool) model.FaultSchedule {
	cur := append(model.FaultSchedule(nil), s...)
	n := 2
	for len(cur) >= 2 {
		chunks := split(cur, n)
		reduced := false
		// Try each chunk alone (the "halve" phase when n == 2).
		for _, ch := range chunks {
			if fails(ch) {
				cur, n, reduced = ch, 2, true
				break
			}
		}
		// Then each chunk's complement.
		if !reduced {
			for i := range chunks {
				comp := complement(chunks, i)
				if fails(comp) {
					cur, reduced = comp, true
					if n = n - 1; n < 2 {
						n = 2
					}
					break
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break // 1-minimal at single-entry granularity
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}

// split partitions s into n nearly equal contiguous chunks.
func split(s model.FaultSchedule, n int) []model.FaultSchedule {
	out := make([]model.FaultSchedule, 0, n)
	for i := 0; i < n; i++ {
		from, to := i*len(s)/n, (i+1)*len(s)/n
		if from < to {
			out = append(out, s[from:to:to])
		}
	}
	return out
}

// complement concatenates every chunk except chunks[skip].
func complement(chunks []model.FaultSchedule, skip int) model.FaultSchedule {
	var out model.FaultSchedule
	for i, ch := range chunks {
		if i != skip {
			out = append(out, ch...)
		}
	}
	return out
}

// ReproCommand renders the soak CLI invocation that replays sched under
// the campaign's workload and shard count, verbatim paste-able.
func ReproCommand(c Campaign, sched model.FaultSchedule) string {
	shards := c.Shards
	if shards <= 0 {
		shards = 1
	}
	return fmt.Sprintf("go run ./cmd/soak -workload %s -shards %d -schedule '%s'",
		c.Workload, shards, sched)
}

// NetpipeRepro renders a netpipe replay command when the schedule fits the
// two-node netpipe machine (nodes 0-1, X links only) — the quickest rig
// for staring at a minimal schedule with -obs.
func NetpipeRepro(sched model.FaultSchedule) (string, bool) {
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil || len(sched) == 0 || sched.Validate(tp) != nil {
		return "", false
	}
	return fmt.Sprintf("go run ./cmd/netpipe -series put -pattern stream -gbn -schedule '%s'", sched), true
}
