// Package trace records the exact information cycle pricing consumes from an
// interpretation of a decision-tree program — which tree executed, which exit
// it took, and which guarded operations committed — and nothing else.
//
// A simulator records one trace per program interpretation; any number of
// machine models can then be priced by replaying the trace against their
// schedules, without evaluating a single operand (see sim.Replayer). The
// format is the classic trace-driven-simulation split of a functional pass
// from the timing passes it feeds.
//
// Cycle counts are schedule lengths weighted by how often each path ran, so
// event order never influences a price. The Recorder therefore aggregates as
// it records: a trace is a histogram with one count per distinct (tree, exit,
// commit bits) pattern — a few thousand entries standing in for millions of
// tree executions.
//
// # Payload format
//
// A trace's payload is a sequence of encoding/binary unsigned varints, each
// in its minimal encoding:
//
//	MaxFn+1                   largest function index called, plus one (0: no calls)
//	per pattern, in first-appearance order:
//	  Idx Exit len(Bits) Bits Count
//
// Bits are len(Bits) raw bytes: bit k (byte k/8, bit k%8) is the commit bit
// of the tree's k-th guarded op in Seq order. Count is at least 1. Every
// payload is sealed with an integrity footer (see Trace).
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
)

// Trace is one recorded interpretation: the sealed histogram payload plus
// the run's whole-execution totals, which replay reports without re-deriving.
//
// The payload is followed by a fixed integrity footer (magic, payload
// length, CRC32), and Hist verifies it before decoding, so truncation or bit
// corruption surfaces as a typed error (ErrTruncated / ErrChecksum) instead
// of garbage cycle counts. Traces come from Recorder.Finish; the zero Trace
// has no footer and fails verification.
type Trace struct {
	// Events counts recorded events: tree executions, calls and returns.
	Events int64
	// TreeExecs counts tree executions (the priced events) out of Events.
	TreeExecs int64
	// Ops and Committed are the recorded run's dynamic operation totals
	// (sim.Result.Ops / sim.Result.Committed).
	Ops, Committed int64

	// data is the histogram payload followed by the footer.
	data []byte

	histOnce sync.Once
	hist     *Hist
	histErr  error
}

// Integrity footer layout: 4 magic bytes, then the payload length and the
// payload's IEEE CRC32 as little-endian uint32s. The magic is just a marker —
// the footer is located by position (the last footerSize bytes), never
// scanned for, so no payload byte pattern can be confused with it.
var footerMagic = [4]byte{0xF5, 'T', 'R', 'C'}

const footerSize = 12

// ErrCorrupt is wrapped by every error reporting a damaged or malformed
// trace, so callers can distinguish it from their own validation failures.
var ErrCorrupt = errors.New("trace: corrupt trace")

// Integrity errors. Both wrap ErrCorrupt, so existing corrupt-trace handling
// catches them; they are additionally distinguishable for tests and
// degradation accounting.
var (
	// ErrTruncated marks a trace whose payload length no longer matches its
	// footer (bytes lost or a footer destroyed).
	ErrTruncated = fmt.Errorf("%w: payload truncated or footer missing", ErrCorrupt)
	// ErrChecksum marks a trace whose payload fails its CRC (bit corruption).
	ErrChecksum = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
)

// seal appends the integrity footer over the current payload.
func (t *Trace) seal() {
	var foot [footerSize]byte
	copy(foot[:4], footerMagic[:])
	binary.LittleEndian.PutUint32(foot[4:8], uint32(len(t.data)))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(t.data))
	t.data = append(t.data, foot[:]...)
}

// payload returns the histogram bytes, excluding the integrity footer (nil
// when there is no room for a footer).
func (t *Trace) payload() []byte {
	if len(t.data) < footerSize {
		return nil
	}
	return t.data[:len(t.data)-footerSize]
}

// Verify checks the trace's integrity footer: the magic must be present, the
// payload length must match, and the payload CRC must agree. The error
// (ErrTruncated or ErrChecksum) wraps ErrCorrupt.
func (t *Trace) Verify() error {
	if len(t.data) < footerSize {
		return ErrTruncated
	}
	foot := t.data[len(t.data)-footerSize:]
	pay := t.payload()
	if !bytes.Equal(foot[:4], footerMagic[:]) {
		return ErrTruncated
	}
	if binary.LittleEndian.Uint32(foot[4:8]) != uint32(len(pay)) {
		return ErrTruncated
	}
	if binary.LittleEndian.Uint32(foot[8:12]) != crc32.ChecksumIEEE(pay) {
		return ErrChecksum
	}
	return nil
}

// Bytes returns the encoded histogram (without the integrity footer). The
// slice is owned by the trace and must not be modified.
func (t *Trace) Bytes() []byte { return t.payload() }

// Size returns the encoded histogram length in bytes (without the integrity
// footer).
func (t *Trace) Size() int { return len(t.payload()) }

// Clone returns a deep copy of the trace with its own buffer and a fresh
// histogram cache. Fault injection corrupts clones so the original (often
// shared across cells) stays intact for recovery.
func (t *Trace) Clone() *Trace {
	return &Trace{
		Events:    t.Events,
		TreeExecs: t.TreeExecs,
		Ops:       t.Ops,
		Committed: t.Committed,
		data:      append([]byte(nil), t.data...),
	}
}

// FlipByte XORs payload byte i (taken modulo the payload size) with 0xFF — a
// fault-injection helper simulating bit corruption. No-op on an empty
// payload. The histogram cache must not have been built yet.
func (t *Trace) FlipByte(i int) {
	pay := t.payload()
	if len(pay) == 0 {
		return
	}
	if i < 0 {
		i = -i
	}
	pay[i%len(pay)] ^= 0xFF
}

// HistEntry is one distinct (tree, exit, commit bits) pattern of a trace and
// the total number of times it executed.
type HistEntry struct {
	// Idx is the tree PIdx; Exit the taken exit index.
	Idx, Exit int
	// Bits are the packed guard-commit bits. The slice aliases the trace's
	// buffer and must not be modified.
	Bits []byte
	// Count is the pattern's total execution count across the whole trace.
	Count int64
}

// Bit reports whether the k-th guarded op (in Seq order — the wire
// contract for commit bits) committed in this pattern. Bits beyond the
// recorded slice are 0: a pattern records only as many bytes as its tree
// has guarded ops.
func (e HistEntry) Bit(k int) bool {
	if k < 0 || k>>3 >= len(e.Bits) {
		return false
	}
	return e.Bits[k>>3]&(1<<uint(k&7)) != 0
}

// Hist is the decoded view of a trace: one entry per distinct tree
// execution pattern, in first-appearance order, plus the largest function
// index called, which a replayer validates. Because cycle pricing is a pure
// function of the pattern and int64 sums commute, replaying the histogram
// prices each distinct pattern exactly once.
type Hist struct {
	Entries []HistEntry
	// MaxFn is the largest function index called (-1 when nothing was).
	MaxFn int
}

// Hist returns the trace's histogram, verifying the integrity footer and
// decoding the payload on first use and caching the result; safe for
// concurrent use. The error, if any, wraps ErrCorrupt.
func (t *Trace) Hist() (*Hist, error) {
	t.histOnce.Do(func() {
		if err := t.Verify(); err != nil {
			t.histErr = err
			return
		}
		t.hist, t.histErr = decodeHist(t.payload())
	})
	return t.hist, t.histErr
}

// appendHist appends the payload encoding of h to buf.
func appendHist(buf []byte, h *Hist) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.MaxFn+1))
	for _, e := range h.Entries {
		buf = binary.AppendUvarint(buf, uint64(e.Idx))
		buf = binary.AppendUvarint(buf, uint64(e.Exit))
		buf = binary.AppendUvarint(buf, uint64(len(e.Bits)))
		buf = append(buf, e.Bits...)
		buf = binary.AppendUvarint(buf, uint64(e.Count))
	}
	return buf
}

// decodeHist decodes a payload, accepting exactly what appendHist produces:
// minimal varints, indices that fit an int32 and positive counts. Errors wrap
// ErrCorrupt.
func decodeHist(data []byte) (*Hist, error) {
	var err error
	// next decodes one varint no larger than max; once decoding has failed
	// it returns 0.
	next := func(what string, max uint64) uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(data)
		switch {
		case n <= 0:
			err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		case n > 1 && data[n-1] == 0:
			err = fmt.Errorf("%w: non-minimal %s varint", ErrCorrupt, what)
		case v > max:
			err = fmt.Errorf("%w: %s %d out of range", ErrCorrupt, what, v)
		default:
			data = data[n:]
			return v
		}
		return 0
	}
	h := &Hist{MaxFn: int(next("function index", math.MaxInt32+1)) - 1}
	for err == nil && len(data) > 0 {
		e := HistEntry{Idx: int(next("tree index", math.MaxInt32)), Exit: int(next("exit", math.MaxInt32))}
		nb := next("bits length", math.MaxInt32)
		if nb > uint64(len(data)) {
			return nil, fmt.Errorf("%w: %d bit bytes but only %d left", ErrCorrupt, nb, len(data))
		}
		e.Bits, data = data[:nb:nb], data[nb:]
		if e.Count = int64(next("count", math.MaxInt64)); err == nil && e.Count == 0 {
			err = fmt.Errorf("%w: zero pattern count", ErrCorrupt)
		}
		h.Entries = append(h.Entries, e)
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Recorder builds a trace's histogram as the interpretation runs. The zero
// value is not ready; use NewRecorder.
type Recorder struct {
	events, trees int64
	maxFn         int
	entries       []HistEntry

	// Patterns are looked up once per tree execution, so the key
	// representation is hot. Small patterns — a 16-bit tree index, a 13-bit
	// exit and at most 6 bit bytes, i.e. essentially all of them — pack with
	// their bit length into a uint64 keyed per tree (integer hashing is
	// several times cheaper than hashing a byte string); anything larger
	// falls back to a byte-string key.
	fast []fastTree       // by tree idx
	slow map[string]int32 // oversized patterns -> entries index
	key  []byte
}

// fastTree is one tree's packed-pattern index. A tree usually repeats its
// previous pattern (a loop body taking its back edge), so the last pattern
// is checked before the map.
type fastTree struct {
	m       map[uint64]int32 // packed pattern -> entries index
	lastKey uint64
	last    int32 // entries index of lastKey; -1 before the first execution
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{maxFn: -1} }

// Tree records one tree execution: the tree's program-wide index, the taken
// exit's index, and the packed commit bits of the tree's guarded ops (bit k
// = k-th guarded op in Seq order; trailing bits must be zero). bits is
// copied; the caller may reuse the buffer.
func (r *Recorder) Tree(pidx, exit int, bits []byte) {
	if pidx < 0 || exit < 0 {
		panic("trace: negative tree or exit index")
	}
	r.events++
	r.trees++
	next := int32(len(r.entries))
	if pidx < 1<<16 && exit < 1<<13 && len(bits) <= 6 {
		k := uint64(exit)<<51 | uint64(len(bits))<<48
		for i, b := range bits {
			k |= uint64(b) << (8 * i)
		}
		for pidx >= len(r.fast) {
			r.fast = append(r.fast, fastTree{last: -1})
		}
		ft := &r.fast[pidx]
		if ft.last >= 0 && ft.lastKey == k {
			r.entries[ft.last].Count++
			return
		}
		if ft.m == nil {
			ft.m = map[uint64]int32{}
		}
		if i, ok := ft.m[k]; ok {
			r.entries[i].Count++
			ft.lastKey, ft.last = k, i
			return
		}
		ft.m[k] = next
		ft.lastKey, ft.last = k, next
	} else {
		// Varints are self-delimiting, so the key cannot collide across
		// patterns with different bit lengths.
		r.key = binary.AppendUvarint(r.key[:0], uint64(pidx))
		r.key = binary.AppendUvarint(r.key, uint64(exit))
		r.key = append(r.key, bits...)
		if i, ok := r.slow[string(r.key)]; ok {
			r.entries[i].Count++
			return
		}
		if r.slow == nil {
			r.slow = map[string]int32{}
		}
		r.slow[string(r.key)] = next
	}
	r.entries = append(r.entries, HistEntry{Idx: pidx, Exit: exit, Bits: append([]byte(nil), bits...), Count: 1})
}

// Patterns returns the number of distinct patterns recorded so far: the
// histogram index the next new pattern will take.
func (r *Recorder) Patterns() int { return len(r.entries) }

// Call records entry into the function with the given Program.Order index.
func (r *Recorder) Call(fn int) {
	if fn < 0 {
		panic("trace: negative function index")
	}
	r.events++
	r.maxFn = max(r.maxFn, fn)
}

// Ret records a function return.
func (r *Recorder) Ret() { r.events++ }

// Finish encodes the recorded histogram into a sealed trace, attaching the
// recorded run's dynamic operation totals. The recorder must not be used
// afterwards.
func (r *Recorder) Finish(ops, committed int64) *Trace {
	return FromHist(&Hist{Entries: r.entries, MaxFn: r.maxFn}, r.events, r.trees, ops, committed)
}

// FromHist encodes and seals a histogram built without a Recorder, with the
// totals of the run it describes: the trace a Recorder would have finished
// after recording that run, byte for byte, when h lists its patterns in
// first-appearance order.
func FromHist(h *Hist, events, treeExecs, ops, committed int64) *Trace {
	t := &Trace{
		Events:    events,
		TreeExecs: treeExecs,
		Ops:       ops,
		Committed: committed,
		data:      appendHist(nil, h),
	}
	t.seal()
	return t
}
