package exper

// Persistent warm-start layer: when Runner.Store is set, every cell artifact
// a report reads — prepare summaries and priced measurement cells — is
// served from the content-addressed on-disk store when present and
// persisted when computed. A fully warm run renders every report from those
// alone, without compiling a single tree or capturing a single trace.
// Traces and compiled code stay process-local: a warm run never reads them,
// and a cold one recomputes them on the way to the cells it persists.
//
// Keys hash everything that determines an artifact's content: the
// benchmark's source text (content addressing — renames don't invalidate),
// the pipeline kind, the cell's canonical memory latency, the SpD transform
// parameters, the fuel budget, and the sweep grid's model layout. Execution
// backend, trace backend, and worker-pool width are deliberately absent:
// reports are byte-identical across all of them (CI-pinned), so one store
// warms every combination.
//
// The store is bypassed entirely — no reads, no writes — under -verify
// (re-checking is the point) and fault injection (injected faults must
// actually fire, and the results they corrupt must never be persisted).

import (
	"encoding/binary"
	"math"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/store"
)

// storeOK reports whether artifact reads and writes are enabled.
func (r *Runner) storeOK() bool {
	return r.Store != nil && !r.Verify && r.Inject == nil
}

// keySource names one benchmark source under one artifact kind: the shared
// leading parts of that source's artifact keys.
type keySource struct {
	bench string
	kind  store.Kind
}

// artifactKey derives the store key of one cell artifact. cellLat is the
// cell's canonical latency (0 for the shared latency-insensitive cell);
// lats lists the latencies a measurement cell prices (nil otherwise). The
// benchmark source is hashed once per Runner and kind (store.KeyPrefix).
func (r *Runner) artifactKey(kind store.Kind, b *bench.Benchmark, dk disamb.Kind, cellLat int, lats []int) store.Key {
	prefix, _ := r.keys.Do(keySource{b.Name, kind}, func() (store.KeyPrefix, error) {
		return store.NewKeyPrefix(kind, []byte(b.Source)), nil
	})
	cfg := make([]byte, 0, 96)
	cfg = binary.AppendVarint(cfg, int64(cellLat))
	cfg = binary.AppendVarint(cfg, int64(r.Fuel))
	cfg = binary.AppendUvarint(cfg, math.Float64bits(r.Params.MaxExpansion))
	cfg = binary.AppendUvarint(cfg, math.Float64bits(r.Params.MinGain))
	cfg = binary.AppendUvarint(cfg, math.Float64bits(r.Params.AssumedAliasProb))
	cfg = binary.AppendUvarint(cfg, math.Float64bits(r.Params.MaxAliasProb))
	if r.Params.Forwarding {
		cfg = append(cfg, 1)
	} else {
		cfg = append(cfg, 0)
	}
	cfg = binary.AppendVarint(cfg, int64(r.Params.MaxIterationsPerTree))
	cfg = binary.AppendVarint(cfg, MaxWidth)
	cfg = binary.AppendUvarint(cfg, uint64(len(lats)))
	for _, lat := range lats {
		cfg = binary.AppendVarint(cfg, int64(lat))
	}
	return prefix.Key([]byte(dk.String()), cfg)
}

// Summary returns (computing and caching) the report-visible residue of one
// prepare cell: the SpD application counts and the before/after operation
// counts that Table 6-3 and Figure 6-4 render. Served from the persistent
// store when warm — the preparation pipeline (compile, transform, profile)
// never runs; built from a full preparation and persisted otherwise.
func (r *Runner) Summary(b *bench.Benchmark, kind disamb.Kind, memLat int) (*store.PrepSummary, error) {
	key := prepKey{b.Name, kind, memLat}
	if !kind.LatencySensitive() {
		key.memLat = 0
	}
	return r.sums.Do(key, func() (*store.PrepSummary, error) {
		var skey store.Key
		if r.storeOK() {
			skey = r.artifactKey(store.KindPrep, b, kind, key.memLat, nil)
			if s, ok := store.GetPrep(r.Store, skey); ok {
				r.nStorePreps.Add(1)
				return s, nil
			}
		}
		c, err := r.prepCell(b, kind, memLat)
		if err != nil {
			return nil, err
		}
		s := c.sum
		if r.storeOK() {
			store.PutPrep(r.Store, skey, s)
		}
		return s, nil
	})
}

// cellToArtifact flattens a priced measurement cell into its persistable
// form: one row of MaxWidth+1 cycle counts (infinite machine first, then
// widths 1..MaxWidth) per priced latency.
func cellToArtifact(cell *measCell, lats []int) *store.MeasCell {
	mc := &store.MeasCell{
		Lats:  append([]int(nil), lats...),
		Times: make([][]int64, len(cell.byLat)),
	}
	for li, m := range cell.byLat {
		row := make([]int64, 0, MaxWidth+1)
		row = append(row, m.Inf)
		row = append(row, m.ByWidth[:]...)
		mc.Times[li] = row
		mc.Ops = m.Ops
	}
	return mc
}

// cellFromArtifact rebuilds a measurement cell from its persisted form, or
// returns nil when the artifact's latency layout does not match the request
// (a stale or foreign artifact — treated as a miss, never served).
func cellFromArtifact(mc *store.MeasCell, lats []int) *measCell {
	if len(mc.Lats) != len(lats) || len(mc.Times) != len(lats) {
		return nil
	}
	for i, lat := range lats {
		if mc.Lats[i] != lat || len(mc.Times[i]) != MaxWidth+1 {
			return nil
		}
	}
	cell := &measCell{byLat: make([]*Measurement, len(lats))}
	for li, row := range mc.Times {
		m := &Measurement{Inf: row[0], Ops: mc.Ops}
		copy(m.ByWidth[:], row[1:])
		cell.byLat[li] = m
	}
	return cell
}

// StoreStats returns the persistent store's counters (zero when no store is
// attached).
func (r *Runner) StoreStats() store.Stats {
	if r.Store == nil {
		return store.Stats{}
	}
	return r.Store.Stats()
}
