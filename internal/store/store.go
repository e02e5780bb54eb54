// Package store is a persistent, content-addressed artifact store for the
// evaluation pipeline: prepare summaries and priced measurement cells, keyed
// by cryptographic hashes of everything that determines the artifact
// (program source, pipeline, latency, transform parameters).
//
// The store is the warm-start substrate of the sweep grid: a cold
// `spdbench -store=DIR` run populates it, and a warm run serves every cell
// from it — zero tree compilations, zero trace captures, byte-identical
// reports. Traces and compiled code are not persisted: a warm run never
// executes a tree or replays a trace, so it would never read them.
//
// # On-disk layout
//
// One artifact per file, under a two-hex-digit shard of the key:
//
//	DIR/ab/abcdef….spda
//
// where abcdef… is the full 64-hex-digit SHA-256 key. Every file is a
// payload followed by the same integrity footer internal/trace seals traces
// with — 4 magic bytes, the payload length and the payload's IEEE CRC32 as
// little-endian uint32s — and the payload itself starts with an artifact
// kind byte and a format version varint. Writers persist via
// write-to-temp-then-rename, so a reader never observes a half-written
// artifact; a torn write at worst leaves the previous version (or nothing)
// in place.
//
// # Corruption degrades to recompute
//
// Get verifies the footer before returning a payload and the typed decoders
// (artifacts.go) check the kind and version words. Anything that fails —
// truncation, bit corruption, a stale format version — is dropped from disk
// and reported as a miss: the caller recomputes the artifact and the next
// Put repairs the store. Corruption can therefore never change results, only
// cost a recompute; the CorruptDropped counter makes the repair observable.
// This is the persistent rung of the resilience ladder (docs/RESILIENCE.md).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Kind tags the artifact family a payload belongs to. The kind byte leads
// the payload, so a key collision across families (impossible in practice —
// the kind is also hashed into the key) can never decode as the wrong type.
type Kind byte

// Artifact kinds. Kinds 1, 2 and 3 held compiled bytecode, native-tier
// metadata and captured traces in older stores; they are retired, never
// read, and must not be reused.
const (
	KindPrep Kind = 4 // prepare-cell summary (SpD counts, op counts)
	KindMeas Kind = 5 // priced measurement cell (cycle counts per model)
)

func (k Kind) String() string {
	switch k {
	case KindPrep:
		return "prep"
	case KindMeas:
		return "meas"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Key addresses one artifact: a SHA-256 over the artifact kind and every
// input that determines the artifact's content.
type Key [sha256.Size]byte

// String returns the key's 64-hex-digit form, the on-disk file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// NewKey derives a key from the artifact kind and a sequence of canonical
// byte parts. Parts are length-prefixed before hashing, so no concatenation
// of different part boundaries can collide.
func NewKey(kind Kind, parts ...[]byte) Key {
	h := sha256.New()
	h.Write([]byte{byte(kind)})
	writeParts(h, parts)
	return Key(h.Sum(nil))
}

// KeyPrefix is NewKey's hash state after the kind and a first part. Keys
// that share both (every artifact of one benchmark source) hash that part
// once: NewKeyPrefix(kind, a).Key(b...) == NewKey(kind, a, b...).
type KeyPrefix struct{ state []byte }

// NewKeyPrefix hashes kind and first and saves the hash state.
func NewKeyPrefix(kind Kind, first []byte) KeyPrefix {
	h := sha256.New()
	h.Write([]byte{byte(kind)})
	writeParts(h, [][]byte{first})
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("store: " + err.Error())
	}
	return KeyPrefix{state}
}

// Key derives the key of the prefix's kind and first part followed by parts.
func (p KeyPrefix) Key(parts ...[]byte) Key {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.state); err != nil {
		panic("store: Key on a KeyPrefix not made by NewKeyPrefix")
	}
	writeParts(h, parts)
	return Key(h.Sum(nil))
}

// writeParts hashes each part behind its uvarint length.
func writeParts(h hash.Hash, parts [][]byte) {
	var buf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(buf[:], uint64(len(p)))
		h.Write(buf[:n])
		h.Write(p)
	}
}

// Integrity footer, byte-compatible with the internal/trace layout: magic,
// payload length, payload CRC32 (IEEE), all little-endian.
var footerMagic = [4]byte{0xF5, 'A', 'R', 'T'}

const footerSize = 12

// ErrCorrupt marks an artifact that failed its integrity or format checks.
// Callers treat it as a miss and recompute; the store drops the bad file.
var ErrCorrupt = errors.New("store: corrupt artifact")

// Stats are the store's cumulative counters. All fields are totals since
// Open; a Stats value is a snapshot, not an atomic cut. The JSON names are
// the schema of the store section of spdbench's BENCH_spdbench.json and of
// spdd's /metrics.
type Stats struct {
	// Hits counts Gets served; Misses the Gets that found nothing usable.
	// Hits + Misses == Gets. Every hit reads its artifact from disk.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// MemHits is always 0: the store keeps no copy in memory. The field
	// stays only because perfbench's eval-warm workload still reads it, and
	// perfbench changes only together with the benchmark; it is not part of
	// the JSON schema.
	MemHits int64 `json:"-"`
	// Puts counts artifacts written; BytesWritten their total payload bytes
	// (excluding footers). BytesRead totals payload bytes read from disk.
	Puts         int64 `json:"puts"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// CorruptDropped counts on-disk artifacts deleted because they failed
	// the footer check or their typed decoder; each one cost its caller a
	// recompute and was repaired by the subsequent Put.
	CorruptDropped int64 `json:"corrupt_dropped"`
	// IOShortReads and IOOpenErrors count injected store I/O faults
	// (ArmIOFaults): short reads surface as corruption (the footer check
	// fails, the file is dropped and repaired by the recompute's Put), while
	// transient open errors surface as a plain miss with the file left
	// intact, so the next Get succeeds.
	IOShortReads int64 `json:"io_short_reads"`
	IOOpenErrors int64 `json:"io_open_errors"`
}

// Store is a persistent artifact store. Every Get reads, verifies and
// decodes the artifact file; nothing is kept in memory.
// Safe for concurrent use; multiple processes may share a directory (writes
// are atomic renames; last writer wins with identical content, since keys
// are content hashes over the artifact's inputs).
type Store struct {
	prefix string // the root directory, cleaned, with a trailing separator: path's stem

	mu    sync.Mutex
	stats Stats
	io    *ioFaults
}

// ioFaults is the armed store-level fault injector (ArmIOFaults): seeded,
// per-key deterministic, firing at most once per key so every injected fault
// is transient and the repair rung is what a test observes.
type ioFaults struct {
	seed uint64
	rate float64
	done map[Key]bool // keys whose disk-read fault already fired
}

// ioFaultKind selects the fault dealt to one disk read.
type ioFaultKind uint8

const (
	ioFaultNone  ioFaultKind = iota
	ioFaultShort             // truncated read: surfaces as corruption, drop→recompute→repair
	ioFaultOpen              // transient open error: a plain miss, file left intact
)

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	prefix := filepath.Clean(dir)
	if !os.IsPathSeparator(prefix[len(prefix)-1]) {
		prefix += string(filepath.Separator)
	}
	return &Store{prefix: prefix}, nil
}

// ArmIOFaults arms seeded I/O fault injection on the store's disk reads —
// the persistent-rung counterpart of the per-cell fault plan
// (resilience.FaultStoreIO). Each key's first read that finds a file is dealt,
// deterministically from (seed, key), either nothing, a short read (the
// payload is truncated before the footer check, so it surfaces exactly like
// on-disk corruption and exercises drop→recompute→repair), or a transient
// open error (the Get misses but the file survives, so the next Get
// succeeds). rate is the fraction of keys faulted, in [0, 1]. Faults fire at
// most once per key; the same (seed, rate) over the same access pattern
// always deals the same faults, so chaos runs can pin the Stats counters.
func (s *Store) ArmIOFaults(seed uint64, rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.io = &ioFaults{seed: seed, rate: rate, done: map[Key]bool{}}
}

// ioFaultFor deals (and consumes) the I/O fault for one disk read of key.
func (s *Store) ioFaultFor(k Key) ioFaultKind {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.io == nil || s.io.done[k] {
		return ioFaultNone
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", s.io.seed, k)
	sum := h.Sum64()
	if float64(sum%1_000_000)/1_000_000 >= s.io.rate {
		return ioFaultNone
	}
	s.io.done[k] = true
	if (sum>>20)&1 == 0 {
		return ioFaultShort
	}
	return ioFaultOpen
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// readBufSize is the artifact reader's first buffer size (os.ReadFile's
// minimum too): every artifact the suite writes fits in it.
const readBufSize = 512

// path returns the artifact file for key: DIR/<hex[:2]>/<hex>.spda, built
// on the prefix Open cleaned once.
func (s *Store) path(k Key) string {
	var name [2 * sha256.Size]byte
	hex.Encode(name[:], k[:])
	var b strings.Builder
	b.Grow(len(s.prefix) + 3 + len(name) + len(".spda"))
	b.WriteString(s.prefix)
	b.Write(name[:2])
	b.WriteByte(filepath.Separator)
	b.Write(name[:])
	b.WriteString(".spda")
	return b.String()
}

// Get returns the verified payload stored under key. A miss — nothing
// stored, or a stored artifact that failed its integrity footer — returns
// false; corrupt files are deleted so the caller's recompute-and-Put
// repairs the store.
func (s *Store) Get(k Key) ([]byte, bool) { return s.get(k, nil) }

// get is Get with an optional payload check (the typed decoders): a payload
// that passes the footer but fails check is dropped like corruption. Either
// way the Get counts exactly once, as a hit or as a miss.
func (s *Store) get(k Key, check func([]byte) error) ([]byte, bool) {
	data, err := readFile(s.path(k))
	if err != nil {
		s.note(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	// Armed I/O faults (ArmIOFaults) fire here, once per key, on a read that
	// actually found a file — a short read degrades into the corruption path
	// below, a transient open error into a plain miss.
	switch s.ioFaultFor(k) {
	case ioFaultOpen:
		s.note(func(st *Stats) {
			st.Misses++
			st.IOOpenErrors++
		})
		return nil, false
	case ioFaultShort:
		s.note(func(st *Stats) { st.IOShortReads++ })
		data = data[:len(data)/2]
	}
	payload, err := checkFooter(data)
	if err != nil || (check != nil && check(payload) != nil) {
		s.dropCorrupt(k)
		return nil, false
	}
	s.note(func(st *Stats) {
		st.Hits++
		st.BytesRead += int64(len(payload))
	})
	return payload, true
}

// probeKey and probePayload are Probe's artifact. The key is the one spdd's
// /readyz has always probed with, so a probed store holds one probe file.
var (
	probeKey     = NewKey(KindPrep, []byte("serve/readyz-probe"))
	probePayload = []byte("probe")
)

// Probe checks that the store can persist and serve an artifact: it writes
// a probe artifact and reads it back, verifying the footer and the bytes.
// The write counts as a Put and the read-back as a Get, and armed I/O
// faults (ArmIOFaults) deal the read-back a fault like any other read.
func (s *Store) Probe() error {
	if err := s.Put(probeKey, probePayload); err != nil {
		return err
	}
	verify := func(p []byte) error {
		if !bytes.Equal(p, probePayload) {
			return ErrCorrupt
		}
		return nil
	}
	if _, ok := s.get(probeKey, verify); !ok {
		return errors.New("store: probe artifact did not read back")
	}
	return nil
}

// Put stores payload under key, sealing it with the integrity footer and
// persisting via write-to-temp-then-rename. Errors are returned for tests
// and diagnostics; callers may ignore them — a failed Put only costs a
// future recompute.
func (s *Store) Put(k Key, payload []byte) error {
	sealed := make([]byte, 0, len(payload)+footerSize)
	sealed = append(sealed, payload...)
	var foot [footerSize]byte
	copy(foot[:4], footerMagic[:])
	binary.LittleEndian.PutUint32(foot[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(payload))
	sealed = append(sealed, foot[:]...)

	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(sealed)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", k, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.note(func(st *Stats) {
		st.Puts++
		st.BytesWritten += int64(len(payload))
	})
	return nil
}

// dropCorrupt removes key from disk, counting the Get that led here as a
// miss and the artifact as corruption-dropped.
func (s *Store) dropCorrupt(k Key) {
	os.Remove(s.path(k))
	s.note(func(st *Stats) {
		st.Misses++
		st.CorruptDropped++
	})
}

// note applies a stats mutation under the lock.
func (s *Store) note(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// checkFooter verifies a sealed artifact and returns its payload.
func checkFooter(data []byte) ([]byte, error) {
	if len(data) < footerSize {
		return nil, fmt.Errorf("%w: short file", ErrCorrupt)
	}
	foot := data[len(data)-footerSize:]
	pay := data[:len(data)-footerSize]
	if !bytes.Equal(foot[:4], footerMagic[:]) {
		return nil, fmt.Errorf("%w: footer magic missing", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(foot[4:8]) != uint32(len(pay)) {
		return nil, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(foot[8:12]) != crc32.ChecksumIEEE(pay) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return pay, nil
}
