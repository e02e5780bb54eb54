package store

// Typed artifact codecs. Every payload is
//
//	kind byte | version uvarint | body…
//
// and the whole payload is sealed with the CRC footer by Store.Put. The
// decoders are strict: a wrong kind byte, an unknown version word, or a
// malformed body drops the artifact (Stats.CorruptDropped) and reports a
// miss, so format evolution and corruption both degrade to recompute instead
// of ever surfacing stale or garbage results.

import (
	"encoding/binary"
	"fmt"
)

// Format versions, one per artifact kind. Bump on any body layout change:
// old artifacts then read as misses and are rewritten on the next cold run.
const (
	VersionPrep = 1
	VersionMeas = 1
)

// header appends the payload preamble.
func header(buf []byte, kind Kind, version uint64) []byte {
	buf = append(buf, byte(kind))
	return binary.AppendUvarint(buf, version)
}

// checkHeader validates the preamble and returns the body.
func checkHeader(payload []byte, kind Kind, version uint64) ([]byte, error) {
	if len(payload) == 0 || Kind(payload[0]) != kind {
		return nil, fmt.Errorf("%w: artifact kind mismatch", ErrCorrupt)
	}
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad version varint", ErrCorrupt)
	}
	if v != version {
		return nil, fmt.Errorf("%w: %s version %d, want %d", ErrCorrupt, kind, v, version)
	}
	return payload[1+n:], nil
}

// dec is a strict little decoder over an artifact body.
type dec struct {
	b   []byte
	err error
}

func (d *dec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad %s varint", ErrCorrupt, what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count decodes a length field and sanity-bounds it against the remaining
// bytes (every counted element costs at least one byte on the wire).
func (d *dec) count(what string, max int) int {
	v := d.uvarint(what)
	if d.err == nil && (v > uint64(max) || v > uint64(len(d.b))) {
		d.err = fmt.Errorf("%w: %s count %d out of range", ErrCorrupt, what, v)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

// ---- Prepare summary -----------------------------------------------------

// PrepSummary is the report-visible residue of one prepare cell — exactly
// what Table 6-3 and Figure 6-4 read off a disamb.Prepared — so a warm run
// can render those rows without compiling or interpreting anything.
type PrepSummary struct {
	// RAW, WAR, WAW are the SpD application counts by dependence type
	// (zero for non-SPEC pipelines).
	RAW, WAR, WAW int
	// BaseOps and AfterOps are the operation counts before and after SpD.
	BaseOps, AfterOps int
	// Grafts counts applied tree grafts.
	Grafts int
}

// EncodePrep encodes a prepare summary payload.
func EncodePrep(p *PrepSummary) []byte {
	buf := header(make([]byte, 0, 32), KindPrep, VersionPrep)
	for _, v := range [...]int{p.RAW, p.WAR, p.WAW, p.BaseOps, p.AfterOps, p.Grafts} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// DecodePrep decodes a prepare summary payload.
func DecodePrep(payload []byte) (*PrepSummary, error) {
	body, err := checkHeader(payload, KindPrep, VersionPrep)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body}
	p := &PrepSummary{
		RAW:      int(d.varint("raw")),
		WAR:      int(d.varint("war")),
		WAW:      int(d.varint("waw")),
		BaseOps:  int(d.varint("base ops")),
		AfterOps: int(d.varint("after ops")),
		Grafts:   int(d.varint("grafts")),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- Measurement cell ----------------------------------------------------

// MeasCell is one priced measurement cell: for each memory latency the cell
// covered, the cycle counts of every machine model (infinite first, then
// each width), plus the run's dynamic operation count.
type MeasCell struct {
	// Lats are the memory latencies priced, in cell order.
	Lats []int
	// Times holds one cycle-count slice per latency, parallel to Lats.
	Times [][]int64
	// Ops is the dynamic operation count of the measured run.
	Ops int64
}

// maxMeasSlots bounds decoded slice sizes against corrupt length fields.
const maxMeasSlots = 1 << 10

// EncodeMeas encodes a measurement-cell payload.
func EncodeMeas(m *MeasCell) []byte {
	buf := header(make([]byte, 0, 64), KindMeas, VersionMeas)
	buf = binary.AppendVarint(buf, m.Ops)
	buf = binary.AppendUvarint(buf, uint64(len(m.Lats)))
	for i, lat := range m.Lats {
		buf = binary.AppendVarint(buf, int64(lat))
		buf = binary.AppendUvarint(buf, uint64(len(m.Times[i])))
		for _, t := range m.Times[i] {
			buf = binary.AppendVarint(buf, t)
		}
	}
	return buf
}

// DecodeMeas decodes a measurement-cell payload.
func DecodeMeas(payload []byte) (*MeasCell, error) {
	body, err := checkHeader(payload, KindMeas, VersionMeas)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body}
	m := &MeasCell{Ops: d.varint("ops")}
	nl := d.count("latencies", maxMeasSlots)
	for i := 0; i < nl && d.err == nil; i++ {
		m.Lats = append(m.Lats, int(d.varint("latency")))
		nt := d.count("times", maxMeasSlots)
		times := make([]int64, 0, nt)
		for j := 0; j < nt && d.err == nil; j++ {
			times = append(times, d.varint("cycles"))
		}
		m.Times = append(m.Times, times)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}
