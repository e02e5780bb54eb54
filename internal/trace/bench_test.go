package trace

import "testing"

// synthTrace drives rec with a synthetic but realistic event mix: nested
// calls, loopy runs of identical tree executions, and pattern changes.
// Returns the number of logical events recorded.
func synthTrace(rec *Recorder) int64 {
	var n int64
	bits := []byte{0, 0}
	for f := 0; f < 4; f++ {
		rec.Call(f)
		n++
		for loop := 0; loop < 50; loop++ {
			bits[0] = byte(loop * 7)
			bits[1] = byte(loop >> 3)
			for iter := 0; iter < 40; iter++ {
				rec.Tree(f*10+loop%10, loop%3, bits)
				n++
			}
		}
		rec.Ret()
		n++
	}
	return n
}

// BenchmarkTraceRecord times the recording hot path: the per-event cost a
// profiling interpretation pays to capture a trace, histogram included.
func BenchmarkTraceRecord(b *testing.B) {
	events := synthTrace(NewRecorder())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder()
		synthTrace(rec)
		tr := rec.Finish(0, 0)
		if tr.Events != events {
			b.Fatalf("recorded %d events, want %d", tr.Events, events)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkTraceHist times decoding a sealed histogram payload — the
// once-per-trace cost replay pricing amortizes across every machine model
// and pipeline sharing the trace.
func BenchmarkTraceHist(b *testing.B) {
	rec := NewRecorder()
	synthTrace(rec)
	tr := rec.Finish(0, 0)
	b.SetBytes(int64(tr.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := decodeHist(tr.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if len(h.Entries) == 0 {
			b.Fatal("empty histogram")
		}
	}
}
