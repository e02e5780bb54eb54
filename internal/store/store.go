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
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
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
	var buf [binary.MaxVarintLen64]byte
	h.Write([]byte{byte(kind)})
	for _, p := range parts {
		n := binary.PutUvarint(buf[:], uint64(len(p)))
		h.Write(buf[:n])
		h.Write(p)
	}
	return Key(h.Sum(nil))
}

// Integrity footer, byte-compatible with the internal/trace layout: magic,
// payload length, payload CRC32 (IEEE), all little-endian.
var footerMagic = [4]byte{0xF5, 'A', 'R', 'T'}

const footerSize = 12

// ErrCorrupt marks an artifact that failed its integrity or format checks.
// Callers treat it as a miss and recompute; the store drops the bad file.
var ErrCorrupt = errors.New("store: corrupt artifact")

// Stats are the store's cumulative counters. All fields are totals since
// Open; a Stats value is a snapshot, not an atomic cut.
type Stats struct {
	// Hits counts Gets served (from the memory front or disk); Misses the
	// Gets that found nothing usable. Hits + Misses == Gets.
	Hits, Misses int64
	// MemHits is the subset of Hits served from the in-memory LRU front
	// without touching disk.
	MemHits int64
	// Puts counts artifacts written; BytesWritten their total payload bytes
	// (excluding footers). BytesRead totals payload bytes read from disk.
	Puts, BytesRead, BytesWritten int64
	// Evictions counts entries dropped from the memory front on capacity.
	Evictions int64
	// CorruptDropped counts on-disk artifacts deleted because they failed
	// the footer check or their typed decoder; each one cost its caller a
	// recompute and was repaired by the subsequent Put.
	CorruptDropped int64
	// IOShortReads and IOOpenErrors count injected store I/O faults
	// (ArmIOFaults): short reads surface as corruption (the footer check
	// fails, the file is dropped and repaired by the recompute's Put), while
	// transient open errors surface as a plain miss with the file left
	// intact, so the next Get succeeds.
	IOShortReads, IOOpenErrors int64
}

// DefaultMemBytes is the default capacity of the in-memory LRU front.
const DefaultMemBytes = 64 << 20

// Store is a persistent artifact store with an in-memory LRU front.
// Safe for concurrent use; multiple processes may share a directory (writes
// are atomic renames; last writer wins with identical content, since keys
// are content hashes over the artifact's inputs).
type Store struct {
	dir string

	mu       sync.Mutex
	mem      map[Key]*list.Element
	order    *list.List // front = most recent
	memBytes int64
	memCap   int64
	stats    Stats
	io       *ioFaults
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

type memEntry struct {
	key     Key
	payload []byte
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{
		dir:    dir,
		mem:    map[Key]*list.Element{},
		order:  list.New(),
		memCap: DefaultMemBytes,
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMemCap bounds the in-memory LRU front to n payload bytes (0 disables
// the front entirely; every hit reads disk).
func (s *Store) SetMemCap(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memCap = n
	s.evictLocked()
}

// ArmIOFaults arms seeded I/O fault injection on the store's disk reads —
// the persistent-rung counterpart of the per-cell fault plan
// (resilience.FaultStoreIO). Each key's first faultable disk read is dealt,
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

// path returns the artifact file for key: DIR/<hex[:2]>/<hex>.spda.
func (s *Store) path(k Key) string {
	name := k.String()
	return filepath.Join(s.dir, name[:2], name+".spda")
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
	payload, mem := s.recall(k)
	if !mem {
		data, err := os.ReadFile(s.path(k))
		if err != nil {
			s.note(func(st *Stats) { st.Misses++ })
			return nil, false
		}
		// Armed I/O faults (ArmIOFaults) fire here, once per key, on a read
		// that actually found a file — a short read degrades into the
		// corruption path below, a transient open error into a plain miss.
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
		if payload, err = checkFooter(data); err != nil {
			s.dropCorrupt(k)
			return nil, false
		}
	}
	if check != nil && check(payload) != nil {
		s.dropCorrupt(k)
		return nil, false
	}
	s.note(func(st *Stats) {
		st.Hits++
		if mem {
			st.MemHits++
		} else {
			st.BytesRead += int64(len(payload))
		}
	})
	if !mem {
		s.remember(k, payload)
	}
	return payload, true
}

// recall returns the memory front's copy of key's payload, refreshing its
// LRU position.
func (s *Store) recall(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.mem[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).payload, true
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
	s.remember(k, sealed[:len(payload):len(payload)])
	return nil
}

// dropCorrupt removes key from disk and the memory front, counting the Get
// that led here as a miss and the artifact as corruption-dropped.
func (s *Store) dropCorrupt(k Key) {
	os.Remove(s.path(k))
	s.mu.Lock()
	if el, ok := s.mem[k]; ok {
		s.memBytes -= int64(len(el.Value.(*memEntry).payload))
		s.order.Remove(el)
		delete(s.mem, k)
	}
	s.stats.Misses++
	s.stats.CorruptDropped++
	s.mu.Unlock()
}

// remember inserts a payload into the memory front, evicting LRU entries
// over capacity.
func (s *Store) remember(k Key, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memCap <= 0 || int64(len(payload)) > s.memCap {
		return
	}
	if el, ok := s.mem[k]; ok {
		s.order.MoveToFront(el)
		return
	}
	s.mem[k] = s.order.PushFront(&memEntry{key: k, payload: payload})
	s.memBytes += int64(len(payload))
	s.evictLocked()
}

func (s *Store) evictLocked() {
	for s.memBytes > s.memCap {
		el := s.order.Back()
		if el == nil {
			return
		}
		e := el.Value.(*memEntry)
		s.order.Remove(el)
		delete(s.mem, e.key)
		s.memBytes -= int64(len(e.payload))
		s.stats.Evictions++
	}
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
