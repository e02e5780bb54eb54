package exper_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specdis/internal/exper"
	"specdis/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmRunServesEverythingFromStore is the tentpole invariant: after one
// cold populating run, a fresh runner over the same store directory renders
// every report byte-identically while compiling zero trees, capturing zero
// traces, and running zero preparations or measurements.
func TestWarmRunServesEverythingFromStore(t *testing.T) {
	dir := t.TempDir()

	plain := exper.New()
	want := renderAll(t, plain)

	cold := exper.New()
	cold.Store = openStore(t, dir)
	if got := renderAll(t, cold); got != want {
		t.Fatal("cold -store output differs from storeless output")
	}
	if st := cold.StoreStats(); st.Puts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	warm := exper.New()
	warm.Store = openStore(t, dir) // fresh handle: nothing in memory
	if got := renderAll(t, warm); got != want {
		t.Fatal("warm output differs from cold output")
	}
	st := warm.Stats()
	if st.Prepares != 0 || st.Measures != 0 || st.TraceCaptures != 0 || st.BCodeCompiled != 0 || st.Graphs != 0 {
		t.Errorf("warm run did cold work: prepares=%d measures=%d captures=%d compiled=%d graphs=%d",
			st.Prepares, st.Measures, st.TraceCaptures, st.BCodeCompiled, st.Graphs)
	}
	if st.StorePreps == 0 || st.StoreMeasures == 0 {
		t.Errorf("warm run not served from store: %+v", st)
	}
	// SimOps is the pinned simulation-work total; the store must preserve it
	// so warm and cold runs report identical work.
	if cold.Stats().SimOps != st.SimOps {
		t.Errorf("warm SimOps %d != cold SimOps %d", st.SimOps, cold.Stats().SimOps)
	}
	ws := warm.StoreStats()
	if ws.Misses != 0 || ws.Puts != 0 {
		t.Errorf("warm run missed or wrote: %+v", ws)
	}
	// The store holds only what a warm run reads: every artifact the cold
	// run wrote is a cell the warm run read back.
	if cs := cold.StoreStats(); cs.Puts != ws.Hits {
		t.Errorf("cold run wrote %d artifacts; want the %d the warm run read", cs.Puts, ws.Hits)
	}
}

// TestCorruptStoreDegradesToRecompute flips a byte in every persisted
// artifact, then requires a fresh runner to (a) render byte-identical
// reports anyway and (b) repair the store so the following run is warm
// again. Corruption may cost recomputes, never correctness.
func TestCorruptStoreDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	cold := exper.New()
	cold.Store = openStore(t, dir)
	want := renderAll(t, cold)

	corrupted := 0
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".spda") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x20
		corrupted++
		return os.WriteFile(p, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("nothing to corrupt")
	}

	repair := exper.New()
	repair.Store = openStore(t, dir)
	if got := renderAll(t, repair); got != want {
		t.Fatal("corrupted store changed report bytes")
	}
	rs := repair.StoreStats()
	if rs.CorruptDropped == 0 {
		t.Errorf("no corruption detected: %+v", rs)
	}
	if st := repair.Stats(); st.Prepares == 0 || st.Measures == 0 {
		t.Errorf("corrupt artifacts were served instead of recomputed: %+v", st)
	}

	// The recomputing run re-put every artifact: warm again.
	warm := exper.New()
	warm.Store = openStore(t, dir)
	if got := renderAll(t, warm); got != want {
		t.Fatal("post-repair output differs")
	}
	if st := warm.Stats(); st.Prepares != 0 || st.Measures != 0 || st.TraceCaptures != 0 {
		t.Errorf("store not repaired; warm run did cold work: %+v", st)
	}
}

// TestReportIdenticalAcrossParAndStore pins the scheduler guarantee across
// pool widths and store modes: every (par, store) combination renders the
// same bytes, and the deduplicated work counters are identical at every
// width, storeless and cold-store alike.
func TestReportIdenticalAcrossParAndStore(t *testing.T) {
	seq := exper.New()
	seq.Par = 1
	want := renderAll(t, seq)

	for _, par := range []int{2, 8} {
		r := exper.New()
		r.Par = par
		if got := renderAll(t, r); got != want {
			t.Errorf("par=%d output differs from sequential", par)
		}
		if r.Stats() != seq.Stats() {
			t.Errorf("par=%d work counters differ: %+v vs %+v", par, r.Stats(), seq.Stats())
		}
	}

	dir := t.TempDir()
	coldStats := make([]exper.Stats, 0, 3)
	for _, par := range []int{1, 2, 8} {
		r := exper.New()
		r.Par = par
		r.Store = openStore(t, filepath.Join(dir, "cold", string(rune('0'+par))))
		if got := renderAll(t, r); got != want {
			t.Errorf("cold store par=%d output differs", par)
		}
		coldStats = append(coldStats, r.Stats())

		w := exper.New()
		w.Par = par
		w.Store = r.Store
		if got := renderAll(t, w); got != want {
			t.Errorf("warm store par=%d output differs", par)
		}
	}
	for i := 1; i < len(coldStats); i++ {
		if coldStats[i] != coldStats[0] {
			t.Errorf("cold work counters differ across par: %+v vs %+v", coldStats[i], coldStats[0])
		}
	}
}

// TestStoreBypassedUnderVerifyAndInject pins the enablement contract: a
// verifying or fault-injected runner must neither read nor write the store
// (verification must re-check everything; injected faults must fire and
// their corrupted results must never persist).
func TestStoreBypassedUnderVerify(t *testing.T) {
	dir := t.TempDir()
	cold := exper.New()
	cold.Store = openStore(t, dir)
	_ = renderAll(t, cold)

	v := exper.New()
	v.Verify = true
	v.Store = openStore(t, dir)
	_ = renderAll(t, v)
	if ss := v.StoreStats(); ss.Hits != 0 || ss.Puts != 0 {
		t.Errorf("verifying runner touched the store: %+v", ss)
	}
	if st := v.Stats(); st.StorePreps != 0 || st.StoreMeasures != 0 {
		t.Errorf("verifying runner served cells from store: %+v", st)
	}
}
