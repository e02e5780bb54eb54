package store

// Typed Get/Put wrappers: each pairs a raw store access with its artifact
// codec and folds every decode failure into the corruption-drops-to-miss
// contract, so callers only ever see "hit with a valid artifact" or "miss,
// recompute". All wrappers are nil-store safe (a nil store is simply always
// a miss), which keeps call sites free of enablement checks.

import "specdis/internal/trace"

// GetPrep returns the prepare summary stored under key.
func GetPrep(s *Store, k Key) (*PrepSummary, bool) {
	return getTyped(s, k, DecodePrep)
}

// PutPrep stores a prepare summary under key.
func PutPrep(s *Store, k Key, p *PrepSummary) {
	if s != nil {
		_ = s.Put(k, EncodePrep(p))
	}
}

// GetMeas returns the measurement cell stored under key.
func GetMeas(s *Store, k Key) (*MeasCell, bool) {
	return getTyped(s, k, DecodeMeas)
}

// PutMeas stores a measurement cell under key.
func PutMeas(s *Store, k Key, m *MeasCell) {
	if s != nil {
		_ = s.Put(k, EncodeMeas(m))
	}
}

// GetTrace returns the execution trace stored under key, verified against
// both the artifact footer and the trace's own integrity footer.
func GetTrace(s *Store, k Key) (*trace.Trace, bool) {
	return getTyped(s, k, DecodeTrace)
}

// PutTrace stores a captured trace under key.
func PutTrace(s *Store, k Key, t *trace.Trace) {
	if s != nil {
		_ = s.Put(k, EncodeTrace(t))
	}
}

// getTyped is the shared hit path: a raw get whose payload check is the
// decoder, so an undecodable artifact is dropped and counted as one miss.
func getTyped[T any](s *Store, k Key, decode func([]byte) (*T, error)) (*T, bool) {
	if s == nil {
		return nil, false
	}
	var v *T
	_, ok := s.get(k, func(payload []byte) (err error) {
		v, err = decode(payload)
		return err
	})
	return v, ok
}
