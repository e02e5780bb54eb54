package exper_test

import (
	"testing"

	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/store"
)

// BenchmarkColdVsWarmCell prices one full measurement cell (prepare,
// capture, replay all 18 machine models) cold against the same cell served
// from a warm artifact store — the store's whole value proposition in one
// number.
func BenchmarkColdVsWarmCell(b *testing.B) {
	bm := exper.New().Benchmarks[0]
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := exper.New()
			r.Par = 1
			if _, err := r.Measure(bm, disamb.Spec, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		seed := exper.New()
		seed.Par = 1
		seed.Store = s
		if _, err := seed.Measure(bm, disamb.Spec, 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := store.Open(dir) // a fresh handle, as a new run opens it
			if err != nil {
				b.Fatal(err)
			}
			r := exper.New()
			r.Par = 1
			r.Store = w
			if _, err := r.Measure(bm, disamb.Spec, 2); err != nil {
				b.Fatal(err)
			}
			if st := r.Stats(); st.Measures != 0 {
				b.Fatal("warm cell was recomputed")
			}
		}
	})
}

// BenchmarkWarmSweep times the full evaluation grid served entirely from a
// warm store — the spdbench -store second-run path.
func BenchmarkWarmSweep(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := exper.New()
	seed.Store = s
	_ = renderAll(b, seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		r := exper.New()
		r.Store = w
		_ = renderAll(b, r)
	}
}
