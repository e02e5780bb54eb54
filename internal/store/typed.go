package store

// Typed Get/Put wrappers: each pairs a raw store access with its artifact
// codec and folds every decode failure into the corruption-drops-to-miss
// contract, so callers only ever see "hit with a valid artifact" or "miss,
// recompute". All wrappers are nil-store safe (a nil store is simply always
// a miss), which keeps call sites free of enablement checks.

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
