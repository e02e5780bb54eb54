package verify

// This file is verification layer 5: the schedule-soundness auditor. The
// cycle counts the experiment pipeline reports are read off list schedules,
// so a scheduler bug corrupts every headline number while executing
// perfectly. AuditSchedule replays one emitted schedule against the
// dependence graph and machine model it was built from and checks, op by
// op and arc by arc, that the timeline could actually have happened:
//
//   - every op is scheduled, and completes exactly its latency after issue;
//   - every dependence arc is ordered with its delay respected (negative
//     anti-dependence delays included);
//   - no cycle issues more ops than the machine has functional units;
//   - the reported schedule length is never shorter than the recomputed
//     dependence-height critical path — and on the infinite machine, where
//     the ASAP construction is optimal, exactly equals it.
//
// Unlike sched.Validate (an error-on-first-violation oracle used inside the
// scheduler's own tests), the auditor reports every violation as a Finding,
// in the same currency as the other verification layers.

import (
	"fmt"

	"specdis/internal/ir"
	"specdis/internal/sched"
)

// AuditSchedule audits one schedule against the dependence graph it was
// built from. numFUs is the machine width the schedule claims to fit
// (numFUs <= 0: the infinite machine, no issue-width limit).
func AuditSchedule(g *ir.DepGraph, s *sched.Schedule, numFUs int) []Finding {
	var out []Finding
	t := g.Tree
	fail := func(check, format string, args ...any) {
		out = append(out, Finding{
			Check: check,
			Func:  t.Fn.Name,
			Tree:  fmt.Sprintf("T%d(%s)", t.ID, t.Name),
			Msg:   fmt.Sprintf(format, args...),
		})
	}
	name := func(i int) string {
		if op := t.Ops[i]; op != nil {
			return fmt.Sprintf("%s %%%d", op.Kind, op.ID)
		}
		return fmt.Sprintf("op #%d", i)
	}
	n := len(t.Ops)
	if len(s.Issue) != n || len(s.Comp) != n {
		fail("sched/shape", "schedule covers %d issue / %d completion slots for %d ops", len(s.Issue), len(s.Comp), n)
		return out
	}

	perCycle := map[int64]int{}
	for i := 0; i < n; i++ {
		if s.Issue[i] < 0 {
			fail("sched/unscheduled", "%s never issues", name(i))
			continue
		}
		perCycle[s.Issue[i]]++
		if want := s.Issue[i] + int64(g.Latency(i)); s.Comp[i] != want {
			fail("sched/comp-latency", "%s issues at cycle %d with latency %d but completes at %d, want %d",
				name(i), s.Issue[i], g.Latency(i), s.Comp[i], want)
		}
		for _, e := range g.Succ[i] {
			if s.Issue[e.To] < 0 {
				continue // reported as sched/unscheduled
			}
			if s.Issue[e.To] < s.Issue[i]+int64(e.Delay) {
				fail("sched/arc-order", "%s issues at cycle %d, before %s (cycle %d) + delay %d",
					name(e.To), s.Issue[e.To], name(i), s.Issue[i], e.Delay)
			}
		}
	}
	if numFUs > 0 {
		for c, k := range perCycle {
			if k > numFUs {
				fail("sched/fu-oversubscribed", "cycle %d issues %d ops on %d FUs", c, k, numFUs)
			}
		}
	}

	// The recomputed critical path lower-bounds any legal schedule; the
	// infinite-machine ASAP construction attains it exactly.
	var cp int64
	for i, c := range g.ASAP() {
		if v := int64(c + g.Latency(i)); v > cp {
			cp = v
		}
	}
	switch length := s.Length(); {
	case length < cp:
		fail("sched/length-understated", "schedule reports %d cycles, below the dependence critical path of %d", length, cp)
	case numFUs <= 0 && length != cp:
		fail("sched/length-mismatch", "infinite-machine schedule reports %d cycles, critical path is %d", length, cp)
	}
	return out
}
