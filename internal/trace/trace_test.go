package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// hist returns the trace's histogram, failing the test on any error.
func hist(t *testing.T, tr *Trace) *Hist {
	t.Helper()
	h, err := tr.Hist()
	if err != nil {
		t.Fatalf("Hist: %v", err)
	}
	return h
}

// checkEntries compares a histogram's entries, in order, against want.
func checkEntries(t *testing.T, got, want []HistEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Idx != w.Idx || g.Exit != w.Exit || g.Count != w.Count || !bytes.Equal(g.Bits, w.Bits) {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestRoundTrip records a mix of events, including values whose varints
// take several bytes, and checks the sealed trace decodes to the recorded
// histogram and totals.
func TestRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Call(0)
	r.Tree(3, 1, []byte{0b101})
	r.Tree(700, 0, nil)
	r.Call(129)
	r.Tree(2, 260, []byte{0xff, 0xff, 0xff, 0x01})
	r.Ret()
	r.Ret()
	tr := r.Finish(42, 40)

	if tr.Ops != 42 || tr.Committed != 40 {
		t.Fatalf("totals = (%d, %d), want (42, 40)", tr.Ops, tr.Committed)
	}
	if tr.Events != 7 || tr.TreeExecs != 3 {
		t.Fatalf("Events, TreeExecs = %d, %d, want 7, 3", tr.Events, tr.TreeExecs)
	}
	want := []HistEntry{
		{Idx: 3, Exit: 1, Bits: []byte{0b101}, Count: 1},
		{Idx: 700, Exit: 0, Bits: []byte{}, Count: 1},
		{Idx: 2, Exit: 260, Bits: []byte{0xff, 0xff, 0xff, 0x01}, Count: 1},
	}
	h := hist(t, tr)
	if h.MaxFn != 129 {
		t.Fatalf("MaxFn = %d, want 129", h.MaxFn)
	}
	checkEntries(t, h.Entries, want)
}

func TestEmptyTrace(t *testing.T) {
	tr := NewRecorder().Finish(0, 0)
	if tr.Events != 0 || tr.TreeExecs != 0 {
		t.Fatalf("empty trace has %d events, %d tree executions", tr.Events, tr.TreeExecs)
	}
	if h := hist(t, tr); len(h.Entries) != 0 || h.MaxFn != -1 {
		t.Fatalf("empty hist = %+v", h)
	}
}

// TestRunLengthMerging checks that repeated executions of one pattern merge
// into a single entry however many times it runs, and that a differing exit
// or differing bits start a new entry.
func TestRunLengthMerging(t *testing.T) {
	r := NewRecorder()
	bits := []byte{0b11}
	for i := 0; i < 1000; i++ {
		r.Tree(5, 0, bits)
	}
	r.Tree(5, 1, bits) // different exit: new entry
	r.Tree(5, 1, bits)
	r.Tree(5, 1, []byte{0b01}) // different bits: new entry
	tr := r.Finish(0, 0)

	if tr.Events != 1003 || tr.TreeExecs != 1003 {
		t.Fatalf("Events, TreeExecs = %d, %d, want 1003, 1003", tr.Events, tr.TreeExecs)
	}
	// 1000 executions must cost far less than one byte each.
	if tr.Size() > 32 {
		t.Fatalf("%d bytes for 1003 executions", tr.Size())
	}
	checkEntries(t, hist(t, tr).Entries, []HistEntry{
		{Idx: 5, Exit: 0, Bits: []byte{0b11}, Count: 1000},
		{Idx: 5, Exit: 1, Bits: []byte{0b11}, Count: 2},
		{Idx: 5, Exit: 1, Bits: []byte{0b01}, Count: 1},
	})
}

// TestRecorderReusesBitsBuffer checks Tree copies bits: mutating the caller's
// buffer after the call must not corrupt the recorded pattern.
func TestRecorderReusesBitsBuffer(t *testing.T) {
	r := NewRecorder()
	buf := []byte{0b1}
	r.Tree(0, 0, buf)
	buf[0] = 0b0
	r.Tree(0, 0, buf)
	checkEntries(t, hist(t, r.Finish(0, 0)).Entries, []HistEntry{
		{Idx: 0, Exit: 0, Bits: []byte{0b1}, Count: 1},
		{Idx: 0, Exit: 0, Bits: []byte{0b0}, Count: 1},
	})
}

// TestHist checks aggregation across the fast packed keys and the oversized
// fallback: non-consecutive executions of a pattern merge, patterns differing
// only in bits (including bit length) stay distinct, and entries keep
// first-appearance order.
func TestHist(t *testing.T) {
	big := []byte{1, 2, 3, 4, 5, 6, 7} // past the packed-key limit
	r := NewRecorder()
	r.Call(2)
	for i := 0; i < 10; i++ {
		r.Tree(1, 0, []byte{0b1})
	}
	r.Tree(4, 1, nil)
	r.Tree(9, 1<<13, nil) // exit past the packed-key limit
	r.Tree(3, 0, big)
	r.Call(7)
	for i := 0; i < 5; i++ {
		r.Tree(1, 0, []byte{0b1}) // same pattern, non-consecutive: must merge
		r.Tree(3, 0, big)
	}
	r.Tree(1, 0, []byte{0b0})      // same tree+exit, different bits: distinct
	r.Tree(1, 0, []byte{0b1, 0b0}) // same leading bits, longer: distinct
	r.Tree(9, 1<<13, nil)
	r.Ret()
	r.Ret()
	tr := r.Finish(0, 0)

	h := hist(t, tr)
	if h.MaxFn != 7 {
		t.Fatalf("MaxFn = %d, want 7", h.MaxFn)
	}
	checkEntries(t, h.Entries, []HistEntry{
		{Idx: 1, Exit: 0, Bits: []byte{0b1}, Count: 15},
		{Idx: 4, Exit: 1, Bits: []byte{}, Count: 1},
		{Idx: 9, Exit: 1 << 13, Bits: []byte{}, Count: 2},
		{Idx: 3, Exit: 0, Bits: big, Count: 6},
		{Idx: 1, Exit: 0, Bits: []byte{0b0}, Count: 1},
		{Idx: 1, Exit: 0, Bits: []byte{0b1, 0b0}, Count: 1},
	})
	// Cached: same pointer on second call.
	h2, err := tr.Hist()
	if err != nil || h2 != h {
		t.Fatalf("Hist not cached: %p vs %p (%v)", h2, h, err)
	}
}

// TestCorruptStreams feeds malformed payloads to the histogram decoder, bare
// and sealed into a trace whose footer is intact: every one must return an
// error wrapping ErrCorrupt, and none may panic or loop.
func TestCorruptStreams(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":               {},
		"truncated header varint":     {0x80},
		"non-minimal varint":          {0x80, 0x00},
		"function index out of range": {0x81, 0x80, 0x80, 0x80, 0x08}, // MaxInt32+2
		"missing exit":                {0x00, 0x00},
		"truncated exit varint":       {0x00, 0x00, 0x80},
		"exit out of int range":       {0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x08},
		"missing bits length":         {0x00, 0x00, 0x01},
		"bits length beyond stream":   {0x00, 0x00, 0x01, 0x05, 0xff},
		"huge bits length":            {0x00, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"missing count":               {0x00, 0x00, 0x01, 0x00},
		"zero count":                  {0x00, 0x00, 0x01, 0x00, 0x00},
		"count out of range":          {0x00, 0x00, 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"tree index out of int range": {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 1<<35
		"varint overflow":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeHist(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeHist error = %v, want ErrCorrupt", err)
			}
			tr := &Trace{data: append([]byte(nil), data...)}
			tr.seal()
			if err := tr.Verify(); err != nil {
				t.Fatalf("Verify = %v, want nil (the footer is intact)", err)
			}
			if _, err := tr.Hist(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Hist error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestTruncatedAfterCompleteEvent checks that a payload whose complete
// patterns are followed by a dangling varint byte fails as a whole, rather
// than yielding the complete patterns.
func TestTruncatedAfterCompleteEvent(t *testing.T) {
	r := NewRecorder()
	r.Tree(1, 0, []byte{0b1})
	tr := r.Finish(0, 0)
	if _, err := decodeHist(tr.Bytes()); err != nil {
		t.Fatalf("clean payload: %v", err)
	}
	data := append(append([]byte(nil), tr.Bytes()...), 0x80) // dangling varint byte
	if h, err := decodeHist(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decodeHist = %+v, %v, want ErrCorrupt", h, err)
	}
}

func TestRecorderPanicsOnNegative(t *testing.T) {
	for name, fn := range map[string]func(r *Recorder){
		"tree": func(r *Recorder) { r.Tree(-1, 0, nil) },
		"exit": func(r *Recorder) { r.Tree(0, -1, nil) },
		"call": func(r *Recorder) { r.Call(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on negative index")
				}
			}()
			fn(NewRecorder())
		})
	}
}

// TestLargeCountsRoundTrip checks counts and indices at the top of their
// ranges survive encoding.
func TestLargeCountsRoundTrip(t *testing.T) {
	h := &Hist{MaxFn: math.MaxInt32, Entries: []HistEntry{
		{Idx: math.MaxInt32, Exit: math.MaxInt32, Bits: []byte{0xff}, Count: math.MaxInt64},
	}}
	got, err := decodeHist(appendHist(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxFn != h.MaxFn {
		t.Fatalf("MaxFn = %d, want %d", got.MaxFn, h.MaxFn)
	}
	checkEntries(t, got.Entries, h.Entries)
}
