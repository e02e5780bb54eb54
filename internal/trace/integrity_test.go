package trace

import (
	"bytes"
	"errors"
	"testing"
)

// sealedTrace records a small but non-trivial histogram and seals it.
func sealedTrace() *Trace {
	r := NewRecorder()
	r.Call(0)
	for i := 0; i < 100; i++ {
		r.Tree(3, 1, []byte{0b101})
	}
	r.Tree(7, 0, []byte{0xff, 0x01})
	r.Ret()
	return r.Finish(1000, 900)
}

func TestSealedTraceVerifies(t *testing.T) {
	tr := sealedTrace()
	if err := tr.Verify(); err != nil {
		t.Fatalf("fresh trace fails verification: %v", err)
	}
	if _, err := tr.Hist(); err != nil {
		t.Fatalf("fresh trace fails Hist: %v", err)
	}
	// The footer is invisible to payload accessors.
	if got := len(tr.data) - tr.Size(); got != footerSize {
		t.Fatalf("footer overhead = %d bytes, want %d", got, footerSize)
	}
}

func TestBitFlipDetected(t *testing.T) {
	for _, off := range []int{0, 1, 7, 1 << 20} {
		tr := sealedTrace()
		tr.FlipByte(off)
		err := tr.Verify()
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("FlipByte(%d): Verify = %v, want ErrChecksum", off, err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("integrity error does not wrap ErrCorrupt: %v", err)
		}
		if _, err := tr.Hist(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Hist on flipped trace = %v, want ErrCorrupt", err)
		}
	}
}

// truncate drops the payload to n bytes, keeping the footer in place — a
// short write.
func truncate(tr *Trace, n int) {
	tr.data = append(append([]byte(nil), tr.data[:n]...), tr.data[len(tr.data)-footerSize:]...)
}

func TestTruncationDetected(t *testing.T) {
	tr := sealedTrace()
	truncate(tr, tr.Size()/2)
	err := tr.Verify()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Verify on truncated trace = %v, want ErrTruncated", err)
	}
	if _, err := tr.Hist(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Hist on truncated trace = %v, want ErrCorrupt", err)
	}

	// Destroying the footer itself is also truncation.
	tr2 := sealedTrace()
	tr2.data = tr2.data[:len(tr2.data)-1]
	if err := tr2.Verify(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Verify with short footer = %v, want ErrTruncated", err)
	}
	tr3 := sealedTrace()
	tr3.data[len(tr3.data)-footerSize] ^= 0xFF // smash the magic
	if err := tr3.Verify(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Verify with bad magic = %v, want ErrTruncated", err)
	}
	// A trace with no footer at all — the zero Trace — never verifies.
	var zero Trace
	if err := zero.Verify(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Verify on the zero Trace = %v, want ErrTruncated", err)
	}
	if _, err := zero.Hist(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Hist on the zero Trace = %v, want ErrCorrupt", err)
	}
	if _, err := Unmarshal(zero.Marshal()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Unmarshal of a footerless trace = %v, want ErrTruncated", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := sealedTrace()
	cl := tr.Clone()
	if cl.Ops != tr.Ops || cl.Events != tr.Events || !bytes.Equal(cl.data, tr.data) {
		t.Fatal("clone differs from original")
	}
	cl.FlipByte(3)
	if err := tr.Verify(); err != nil {
		t.Fatalf("corrupting the clone damaged the original: %v", err)
	}
	if err := cl.Verify(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("clone corruption not detected: %v", err)
	}
	// The original still decodes after the clone was corrupted.
	if _, err := tr.Hist(); err != nil {
		t.Fatalf("original Hist after clone corruption: %v", err)
	}
}

func TestEmptySealedTrace(t *testing.T) {
	tr := NewRecorder().Finish(0, 0)
	if err := tr.Verify(); err != nil {
		t.Fatalf("empty sealed trace fails verification: %v", err)
	}
	// The empty histogram is the single header varint: no calls.
	if !bytes.Equal(tr.Bytes(), []byte{0}) {
		t.Fatalf("empty trace payload = %x, want 00", tr.Bytes())
	}
	// FlipByte still has a payload byte to corrupt.
	tr.FlipByte(0)
	if err := tr.Verify(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped empty trace: Verify = %v, want ErrChecksum", err)
	}
}
