package disamb

import (
	"strings"
	"sync"
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/ir"
	"specdis/internal/sched"
)

// TestLintAllBenchmarksClean is the golden lint suite: every benchmark
// program, prepared under all four disambiguators at both of the paper's
// memory latencies, passes every static and dynamic verifier with zero
// findings. The stats assertions pin that the run actually exercised each
// checker class — a clean report with nothing checked would be vacuous.
func TestLintAllBenchmarksClean(t *testing.T) {
	var mu sync.Mutex
	var total LintStats
	for _, b := range bench.Everything() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Lint(b.Source, LintOptions{MemLats: []int{2, 6}})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Findings {
				t.Errorf("%s", f.String())
			}
			if rep.Stats.Cells == 0 || rep.Stats.Trees == 0 || rep.Stats.Scheds == 0 {
				t.Errorf("vacuous lint run: %+v", rep.Stats)
			}
			mu.Lock()
			total.Pairs += rep.Stats.Pairs
			total.ArcsChecked += rep.Stats.ArcsChecked
			total.ArcsAudited += rep.Stats.ArcsAudited
			total.Patterns += rep.Stats.Patterns
			mu.Unlock()
		})
	}
	t.Cleanup(func() {
		if total.Pairs == 0 {
			t.Errorf("no SpD pairs checked across the whole suite")
		}
		if total.ArcsChecked == 0 || total.ArcsAudited == 0 {
			t.Errorf("no arcs cross-checked or audited across the whole suite: %+v", total)
		}
		if total.Patterns == 0 {
			t.Errorf("no trace commit patterns scanned across the whole suite")
		}
	})
}

// TestLintReportsCorruption seeds violations through the Corrupt hook and
// checks each is caught and reported with a diagnostic naming the damage.
func TestLintReportsCorruption(t *testing.T) {
	src := bench.ByName("perm").Source
	cases := []struct {
		name    string
		corrupt func(*ir.Program)
		check   string
	}{
		{
			name: "swapped-seq",
			corrupt: func(p *ir.Program) {
				for _, name := range p.Order {
					for _, tr := range p.Funcs[name].Trees {
						if len(tr.Ops) >= 2 {
							tr.Ops[0], tr.Ops[1] = tr.Ops[1], tr.Ops[0]
							return
						}
					}
				}
			},
			check: "struct/seq-order",
		},
		{
			name: "dangling-arc",
			corrupt: func(p *ir.Program) {
				for _, name := range p.Order {
					for _, tr := range p.Funcs[name].Trees {
						if len(tr.Arcs) > 0 {
							ghost := *tr.Arcs[0].From
							tr.Arcs[0].From = &ghost
							return
						}
					}
				}
			},
			check: "struct/dangling-arc",
		},
		{
			name: "inflated-count",
			corrupt: func(p *ir.Program) {
				for _, name := range p.Order {
					for _, tr := range p.Funcs[name].Trees {
						if len(tr.Arcs) > 0 {
							tr.Arcs[0].AliasCount = tr.Arcs[0].ExecCount + 1
							return
						}
					}
				}
			},
			check: "struct/arc-counters",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Lint(src, LintOptions{MemLats: []int{2}, Corrupt: tc.corrupt})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() {
				t.Fatalf("corruption %s not detected", tc.name)
			}
			found := false
			for _, f := range rep.Findings {
				if f.Check == tc.check {
					found = true
					break
				}
			}
			if !found {
				var got []string
				for _, f := range rep.Findings {
					got = append(got, f.String())
				}
				t.Fatalf("no %s finding; got:\n%s", tc.check, strings.Join(got, "\n"))
			}
		})
	}
}

// TestLintReportsCompiledCorruption seeds violations into the compiled
// artifacts — an inverted commit mask in a bytecode stream, a swapped issue
// slot in a schedule — through the layer-4/5 corruption hooks and checks the
// translation validator and the schedule auditor each catch their own.
func TestLintReportsCompiledCorruption(t *testing.T) {
	src := bench.ByName("perm").Source

	t.Run("bcode-guard-polarity", func(t *testing.T) {
		rep, err := Lint(src, LintOptions{MemLats: []int{2}, CorruptBCode: func(p *bcode.Prog) {
			for i := range p.Code {
				if p.Code[i].Guard >= 0 {
					p.Code[i].GNeg = !p.Code[i].GNeg
					return
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		wantCheck(t, rep, "bvalid/guard-polarity")
	})

	t.Run("sched-issue-swap", func(t *testing.T) {
		rep, err := Lint(src, LintOptions{MemLats: []int{2}, CorruptSched: func(s *sched.Schedule) {
			for i := 0; i < len(s.Issue); i++ {
				for j := i + 1; j < len(s.Issue); j++ {
					if s.Issue[i] != s.Issue[j] {
						s.Issue[i], s.Issue[j] = s.Issue[j], s.Issue[i]
						return
					}
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		wantCheck(t, rep, "sched/comp-latency")
	})

	// A schedule shorter than its tree is a finding, never an index past
	// the schedule's end.
	t.Run("sched-truncated", func(t *testing.T) {
		rep, err := Lint(src, LintOptions{MemLats: []int{2}, CorruptSched: func(s *sched.Schedule) {
			s.Issue = s.Issue[:len(s.Issue)-1]
		}})
		if err != nil {
			t.Fatal(err)
		}
		wantCheck(t, rep, "sched/shape")
	})
}

// wantCheck asserts the report carries at least one finding with the check ID.
func wantCheck(t *testing.T, rep *LintReport, check string) {
	t.Helper()
	if rep.Clean() {
		t.Fatalf("corruption not detected; report clean")
	}
	for _, f := range rep.Findings {
		if f.Check == check {
			return
		}
	}
	var got []string
	for _, f := range rep.Findings {
		got = append(got, f.String())
	}
	t.Fatalf("no %s finding; got:\n%s", check, strings.Join(got, "\n"))
}
