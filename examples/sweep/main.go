// sweep reproduces a single row of the paper's Figure 6-3 interactively:
// pick a benchmark and memory latency, sweep the machine width from 1 to 8
// functional units, and print the SPEC-over-STATIC speedup at each point —
// showing the resource crossover the paper's §6.3 discusses (SpD's extra
// operations hurt narrow machines and pay off on wide ones).
//
//	go run ./examples/sweep [-bench fft] [-mem 6]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/machine"
)

func main() {
	log.SetFlags(0)
	name := flag.String("bench", "fft", "benchmark to sweep")
	memLat := flag.Int("mem", 6, "memory latency (2 or 6)")
	flag.Parse()

	b := bench.ByName(*name)
	if b == nil {
		var names []string
		for _, x := range bench.All() {
			names = append(names, x.Name)
		}
		log.Fatalf("unknown benchmark %q (have: %s)", *name, strings.Join(names, ", "))
	}

	r := exper.New()
	// Asking for the SPEC program before measuring it keeps the runner from
	// releasing it after the measurement.
	prep, err := r.Prepared(b, disamb.Spec, *memLat)
	if err != nil {
		log.Fatal(err)
	}
	st, err := r.Measure(b, disamb.Static, *memLat)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := r.Measure(b, disamb.Spec, *memLat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %s, %d-cycle memory\n", b.Name, b.Desc, *memLat)
	fmt.Printf("SpD applied %d times (RAW %d, WAR %d, WAW %d), code %+d ops\n\n",
		len(prep.SpD.Apps), prep.SpD.RAW, prep.SpD.WAR, prep.SpD.WAW, prep.SpD.AddedOps)
	fmt.Printf("%5s  %12s  %12s  %9s\n", "FUs", "STATIC cyc", "SPEC cyc", "speedup")
	for w := 1; w <= exper.MaxWidth; w++ {
		s := 100 * (float64(st.ByWidth[w-1])/float64(sp.ByWidth[w-1]) - 1)
		bar := ""
		if n := int(s); n > 0 {
			bar = strings.Repeat("+", min(n, 40))
		} else if n < 0 {
			bar = strings.Repeat("-", min(-n, 40))
		}
		fmt.Printf("%5d  %12d  %12d  %+8.1f%%  %s\n",
			w, st.ByWidth[w-1], sp.ByWidth[w-1], s, bar)
	}
	_ = machine.BranchLatency // documented constant of the model
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
