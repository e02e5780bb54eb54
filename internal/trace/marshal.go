package trace

// Persistence codec: a self-contained encoding of a trace — the
// whole-execution totals followed by the sealed histogram payload — so
// traces can live in the on-disk artifact store (internal/store) and
// warm-start later sweeps without a capture run.

import (
	"encoding/binary"
	"fmt"
)

// Marshal returns a self-contained encoding of the trace: its totals, then
// the histogram payload with its integrity footer. The inverse of Unmarshal.
func (t *Trace) Marshal() []byte {
	buf := make([]byte, 0, len(t.data)+4*binary.MaxVarintLen64)
	for _, v := range [...]int64{t.Events, t.TreeExecs, t.Ops, t.Committed} {
		buf = binary.AppendVarint(buf, v)
	}
	return append(buf, t.data...)
}

// Unmarshal reconstructs a trace from Marshal's encoding. The trace is
// integrity-checked before it is returned, so corruption of the persisted
// bytes surfaces here as ErrTruncated/ErrChecksum (both wrapping
// ErrCorrupt), never as garbage cycle counts downstream.
func Unmarshal(data []byte) (*Trace, error) {
	t := &Trace{}
	for _, dst := range []*int64{&t.Events, &t.TreeExecs, &t.Ops, &t.Committed} {
		v, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad totals varint", ErrCorrupt)
		}
		if v < 0 {
			return nil, fmt.Errorf("%w: negative total %d", ErrCorrupt, v)
		}
		*dst = v
		data = data[n:]
	}
	t.data = append([]byte(nil), data...)
	if err := t.Verify(); err != nil {
		return nil, err
	}
	return t, nil
}
