// Command spdlint runs the static IR verifier, the speculation-safety
// checker, and the dependence-soundness auditor (internal/verify, driven by
// the internal/disamb lint engine) over MiniC programs: each program is
// prepared under all four disambiguators (NAIVE, STATIC, SPEC, PERFECT) and
// every finding is reported. Every run includes layer 4 (translation
// validation of the bytecode and native code of every tree) and layer 5
// (the schedule-soundness audit of every built schedule). The exit status
// is nonzero when any program has findings.
//
// Usage:
//
//	spdlint                    # all benchmark programs + examples/
//	spdlint prog.mc dir ...    # specific programs (.mc files, directories,
//	                           # or .go files with embedded MiniC literals)
//
//	-mem 2,6      memory latencies to lint the SPEC pipeline at
//	-fus 5        machine width for schedule validation
//	-exec native  execution backend for the dynamic checks: native (the
//	              default) | bcode | tree
//	-fuel N       dynamic-op budget per lint interpretation; a cell that
//	              exhausts it (a nonterminating example, say) is skipped
//	              with a notice, not failed
//	-v            per-program checker statistics
//	-corrupt KIND seed a violation before checking (debug: proves the
//	              checkers catch it): seq | arc | bmask (flip a commit
//	              guard's polarity in the compiled bytecode; layer 4 must
//	              catch it) | nfuse (gap a native fusion plan; layer 4's
//	              tiling check must catch it) | sched (swap two issue slots
//	              in the timeline; layer 5 must catch it)
//	-chaos KIND   self-test the lint engine's fault tolerance: panic (an
//	              injected crash in every dynamic check must surface as a
//	              lint/run-failed finding, never kill the process) | fuel
//	              (a tiny budget must skip every dynamic check cleanly)
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/sim"
)

// target is one MiniC program to lint.
type target struct {
	name string
	src  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spdlint: ")
	memFlag := flag.String("mem", "2,6", "comma-separated memory latencies to lint the SPEC pipeline at")
	fus := flag.Int("fus", 5, "machine width for schedule validation")
	execMode := flag.String("exec", "native", "execution backend for the dynamic checks: native, bcode or tree")
	fuel := flag.Int64("fuel", 0, "dynamic-op budget per lint interpretation (0 = the engine default); exhausting cells are skipped, not failed")
	verbose := flag.Bool("v", false, "print per-program checker statistics")
	corrupt := flag.String("corrupt", "", "seed a violation before checking: seq | arc | bmask | nfuse | sched")
	chaos := flag.String("chaos", "", "fault-tolerance self-test: panic (injected crash must become a finding) | fuel (tiny budget must skip cleanly)")
	flag.Parse()

	var memLats []int
	for _, s := range strings.Split(*memFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -mem value %q", s)
		}
		memLats = append(memLats, n)
	}

	opts := disamb.LintOptions{MemLats: memLats, NumFUs: *fus, MaxOps: *fuel}
	mode, ok := sim.ParseExecMode(*execMode)
	if !ok {
		log.Fatalf("unknown -exec mode %q (want bcode, native or tree)", *execMode)
	}
	opts.Exec = mode
	switch *corrupt {
	case "":
	case "seq":
		opts.Corrupt = corruptSeq
	case "arc":
		opts.Corrupt = corruptArc
	case "bmask":
		opts.CorruptBCode = corruptBMask
	case "nfuse":
		opts.CorruptNCode = corruptNFuse
	case "sched":
		opts.CorruptSched = corruptSchedule
	default:
		log.Fatalf("unknown -corrupt kind %q (want seq, arc, bmask, nfuse or sched)", *corrupt)
	}
	switch *chaos {
	case "":
	case "panic":
		// Early enough to fire inside every benchmark's dynamic check.
		opts.ChaosPanicAt = 10_000
	case "fuel":
		// Too small for any real program: every dynamic check must skip.
		opts.MaxOps = 1_000
	default:
		log.Fatalf("unknown -chaos kind %q (want panic or fuel)", *chaos)
	}

	var targets []target
	if flag.NArg() == 0 {
		for _, b := range bench.Everything() {
			targets = append(targets, target{b.Name, b.Source})
		}
		if _, err := os.Stat("examples"); err == nil {
			targets = append(targets, collect("examples")...)
		}
	} else {
		for _, arg := range flag.Args() {
			targets = append(targets, collect(arg)...)
		}
	}
	if len(targets) == 0 {
		log.Fatal("no programs to lint")
	}

	failed := 0
	for _, tg := range targets {
		rep, err := disamb.Lint(tg.src, opts)
		if err != nil {
			log.Fatalf("%s: %v", tg.name, err)
		}
		for _, f := range rep.Findings {
			fmt.Printf("%s: %s\n", tg.name, f.String())
		}
		// Skips are notices, not findings: a clean report may carry them.
		for _, s := range rep.Skips {
			fmt.Printf("%s: SKIP %s\n", tg.name, s)
		}
		if !rep.Clean() {
			failed++
		} else if *verbose {
			st := rep.Stats
			fmt.Printf("%s: ok (%d cells, %d trees, %d pairs, %d arcs checked, %d audited, %d schedules, %d progs validated, %d schedules audited, %d patterns, %d skipped)\n",
				tg.name, st.Cells, st.Trees, st.Pairs, st.ArcsChecked, st.ArcsAudited, st.Scheds, st.Progs, st.Audits, st.Patterns, st.Skipped)
		}
	}
	if failed > 0 {
		log.Fatalf("%d of %d program(s) have findings", failed, len(targets))
	}
	fmt.Printf("spdlint: %d program(s) clean\n", len(targets))
}

// collect resolves one path argument into lint targets: a .mc file, a .go
// file with embedded MiniC string literals, or a directory walked for both.
func collect(path string) []target {
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	var out []target
	add := func(p string) {
		switch filepath.Ext(p) {
		case ".mc":
			data, err := os.ReadFile(p)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, target{p, string(data)})
		case ".go":
			out = append(out, extractMiniC(p)...)
		}
	}
	if !info.IsDir() {
		add(path)
		return out
	}
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			add(p)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return out
}

// extractMiniC pulls candidate MiniC programs out of a Go source file: every
// string literal that compiles as a MiniC program is a lint target. The
// examples embed their subject programs this way, so linting examples/ keeps
// the documentation's programs honest too.
func extractMiniC(path string) []target {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	var out []target
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		src, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if _, err := compile.Compile(src); err != nil {
			return true // not a MiniC program
		}
		out = append(out, target{
			name: fmt.Sprintf("%s:%d", path, fset.Position(lit.Pos()).Line),
			src:  src,
		})
		return true
	})
	return out
}

// corruptSeq swaps the first two ops of the first nontrivial tree,
// breaking Seq ordering: the structural checker must flag it.
func corruptSeq(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if len(t.Ops) >= 2 {
				t.Ops[0], t.Ops[1] = t.Ops[1], t.Ops[0]
				return
			}
		}
	}
}

// corruptBMask flips the guard polarity of the first guarded instruction in
// a compiled bytecode program: the commit protocol now commits the op on the
// wrong side of the disambiguation test, and the translation validator
// (layer 4) must flag the polarity mismatch against the tree IR.
func corruptBMask(p *bcode.Prog) {
	for i := range p.Code {
		if p.Code[i].Guard >= 0 {
			p.Code[i].GNeg = !p.Code[i].GNeg
			return
		}
	}
}

// corruptNFuse gaps the fusion plan of a compiled native closure chain: the
// instruction a superinstruction head claims to consume is marked unfused,
// so the plan no longer tiles the bytecode stream exactly, and the
// translation validator's tiling check (layer 4) must flag the gap.
func corruptNFuse(p *ncode.Prog) {
	for i := 0; i+1 < len(p.Plan); i++ {
		if p.Plan[i] != ncode.FuseNone && p.Plan[i] != ncode.FuseConsumed &&
			p.Plan[i+1] == ncode.FuseConsumed {
			p.Plan[i+1] = ncode.FuseNone
			return
		}
	}
}

// corruptSchedule swaps the first two distinct issue slots of a built
// timeline: completion times no longer match issue-plus-latency (and arcs
// may invert), and the schedule-soundness auditor (layer 5) must flag it.
func corruptSchedule(s *sched.Schedule) {
	for i := 0; i < len(s.Issue); i++ {
		for j := i + 1; j < len(s.Issue); j++ {
			if s.Issue[i] != s.Issue[j] {
				s.Issue[i], s.Issue[j] = s.Issue[j], s.Issue[i]
				return
			}
		}
	}
}

// corruptArc redirects the first memory arc at a copy of its source op,
// leaving the arc dangling: the structural checker must flag it.
func corruptArc(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if len(t.Arcs) > 0 {
				ghost := *t.Arcs[0].From
				t.Arcs[0].From = &ghost
				return
			}
		}
	}
}
