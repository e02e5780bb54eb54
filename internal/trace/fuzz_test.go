package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzHistDecode feeds arbitrary payloads to the histogram decoder: it must
// never panic, every error must wrap ErrCorrupt, and whatever decodes cleanly
// must re-encode to exactly the input bytes — the decoder accepts one
// encoding per histogram, the one a Recorder writes.
func FuzzHistDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01})
	r := NewRecorder()
	r.Call(1)
	r.Tree(3, 1, []byte{0b101})
	r.Tree(3, 1, []byte{0b101})
	r.Tree(9, 1<<13, []byte{1, 2, 3, 4, 5, 6, 7})
	r.Ret()
	f.Add(r.Finish(0, 0).Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHist(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if got := appendHist(nil, h); !bytes.Equal(got, data) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", h, got, data)
		}
	})
}

// FuzzRecorderRoundTrip drives a recorder with a fuzz-derived event script
// and checks the sealed trace's histogram against a direct tally of the
// script — patterns in first-appearance order, their counts, MaxFn — plus
// the Events/TreeExecs totals, directly and through Marshal/Unmarshal.
func FuzzRecorderRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3})
	f.Add([]byte{10, 10, 10, 10})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := NewRecorder()
		key := func(idx, exit int, bits []byte) string {
			k := binary.AppendUvarint(nil, uint64(idx))
			k = binary.AppendUvarint(k, uint64(exit))
			return string(append(k, bits...))
		}
		tally := map[string]int64{}
		var order []string
		var events, trees int64
		maxFn := -1
		for i := 0; i+1 < len(script); i += 2 {
			a, b := script[i], script[i+1]
			events++
			switch a % 4 {
			case 0, 1: // tree; a%4 == 1 pushes some exits past the packed-key limit
				bits := make([]byte, b%8)
				for j := range bits {
					bits[j] = b ^ byte(j*13)
				}
				idx, exit := int(a)*3+int(b%7), int(b%5)+int(a%4)*int(b)<<6
				r.Tree(idx, exit, bits)
				k := key(idx, exit, bits)
				if tally[k] == 0 {
					order = append(order, k)
				}
				tally[k]++
				trees++
			case 2:
				r.Call(int(b))
				maxFn = max(maxFn, int(b))
			default:
				r.Ret()
			}
		}
		tr := r.Finish(7, 5)
		if tr.Events != events || tr.TreeExecs != trees {
			t.Fatalf("Events, TreeExecs = %d, %d, want %d, %d", tr.Events, tr.TreeExecs, events, trees)
		}
		back, err := Unmarshal(tr.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if back.Events != events || back.TreeExecs != trees || back.Ops != 7 || back.Committed != 5 {
			t.Fatalf("Unmarshal totals = %+v", back)
		}
		for _, got := range []*Trace{tr, back} {
			h, err := got.Hist()
			if err != nil {
				t.Fatal(err)
			}
			if h.MaxFn != maxFn {
				t.Fatalf("MaxFn = %d, want %d", h.MaxFn, maxFn)
			}
			if len(h.Entries) != len(order) {
				t.Fatalf("hist has %d entries, want %d", len(h.Entries), len(order))
			}
			for i, e := range h.Entries {
				if k := key(e.Idx, e.Exit, e.Bits); k != order[i] || e.Count != tally[k] {
					t.Fatalf("entry %d = %+v, want key %x count %d", i, e, order[i], tally[order[i]])
				}
			}
		}
	})
}

// FuzzTruncation cuts a sealed trace anywhere: verification must fail with
// ErrTruncated and Hist with ErrCorrupt — never a panic, never a histogram
// from damaged bytes. A bare prefix of the payload, which no footer guards,
// may decode only to a prefix of the histogram.
func FuzzTruncation(f *testing.F) {
	f.Add(int64(1), 5)
	f.Add(int64(99), 0)
	f.Fuzz(func(t *testing.T, seed int64, cut int) {
		r := NewRecorder()
		s := uint64(seed)
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(n))
		}
		for i := 0; i < 30; i++ {
			switch next(4) {
			case 0, 1:
				r.Tree(next(50), next(4), []byte{byte(next(256))})
			case 2:
				r.Call(next(10))
			default:
				r.Ret()
			}
		}
		tr := r.Finish(0, 0)
		cut = int(uint(cut) % uint(len(tr.data)))
		short := &Trace{data: tr.data[:cut:cut]}
		if err := short.Verify(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Verify after cutting at %d = %v, want ErrTruncated", cut, err)
		}
		if _, err := short.Hist(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Hist after cutting at %d = %v, want ErrCorrupt", cut, err)
		}

		full, err := tr.Hist()
		if err != nil {
			t.Fatal(err)
		}
		if cut > tr.Size() {
			return
		}
		h, err := decodeHist(tr.Bytes()[:cut])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if len(h.Entries) > len(full.Entries) {
			t.Fatalf("prefix decoded to %d entries, the full trace has %d", len(h.Entries), len(full.Entries))
		}
		for i, e := range h.Entries {
			w := full.Entries[i]
			if e.Idx != w.Idx || e.Exit != w.Exit || !bytes.Equal(e.Bits, w.Bits) {
				t.Fatalf("prefix entry %d = %+v, want pattern of %+v", i, e, w)
			}
		}
	})
}
