package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyDerivation(t *testing.T) {
	base := NewKey(KindPrep, []byte("src"), []byte("SPEC"))
	if base == (Key{}) {
		t.Fatal("zero key")
	}
	if NewKey(KindMeas, []byte("src"), []byte("SPEC")) == base {
		t.Error("kind must be part of the key")
	}
	if NewKey(KindPrep, []byte("src2"), []byte("SPEC")) == base {
		t.Error("parts must be part of the key")
	}
	// Length prefixes keep part boundaries from colliding.
	if NewKey(KindPrep, []byte("ab"), []byte("c")) == NewKey(KindPrep, []byte("a"), []byte("bc")) {
		t.Error("shifting a part boundary must change the key")
	}
	if got := len(base.String()); got != 64 {
		t.Errorf("key string length = %d, want 64", got)
	}
}

func TestMissThenPutThenHit(t *testing.T) {
	s := openTemp(t)
	k := NewKey(KindPrep, []byte("x"))
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	payload := []byte("hello artifact")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v; want 1 miss, 1 hit, 1 put", st)
	}
	if st.BytesWritten != int64(len(payload)) {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, len(payload))
	}
}

func TestPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey(KindMeas, []byte("cell"))
	if err := s1.Put(k, []byte("data")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || string(got) != "data" {
		t.Fatalf("second open Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.MemHits != 0 || st.BytesRead != 4 {
		t.Errorf("expected a disk hit: %+v", st)
	}
}

func TestMemFrontLRU(t *testing.T) {
	s := openTemp(t)
	s.SetMemCap(8) // two 4-byte payloads
	keys := []Key{NewKey(KindPrep, []byte("a")), NewKey(KindPrep, []byte("b")), NewKey(KindPrep, []byte("c"))}
	for _, k := range keys {
		if err := s.Put(k, []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	// a was evicted by c's insert; b and c are resident.
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, ok := s.Get(keys[2]); !ok {
		t.Fatal("miss on resident key")
	}
	if st := s.Stats(); st.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", st.MemHits)
	}
	// The evicted key still hits — from disk.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("evicted key must still hit from disk")
	}
	if st := s.Stats(); st.MemHits != 1 || st.Hits != 2 {
		t.Errorf("after disk hit: %+v", st)
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	s := openTemp(t)
	for i := byte(0); i < 10; i++ {
		if err := s.Put(NewKey(KindPrep, []byte{i}), bytes.Repeat([]byte{i}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(s.Dir(), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(p) != ".spda" {
			t.Errorf("unexpected file %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// corruptOnDisk mutates the artifact file under k with fn.
func corruptOnDisk(t *testing.T, s *Store, k Key, fn func([]byte) []byte) {
	t.Helper()
	p := s.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionBattery drives every corruption class through the
// degrade-to-recompute contract: the bad file reads as a miss, is deleted,
// and a fresh Put repairs the store.
func TestCorruptionBattery(t *testing.T) {
	prep := &PrepSummary{RAW: 3, WAR: 1, WAW: 2, BaseOps: 100, AfterOps: 120, Grafts: 1}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Store, k Key)
	}{
		{"truncated file", func(t *testing.T, s *Store, k Key) {
			corruptOnDisk(t, s, k, func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"flipped payload byte", func(t *testing.T, s *Store, k Key) {
			corruptOnDisk(t, s, k, func(b []byte) []byte { b[2] ^= 0x40; return b })
		}},
		{"flipped crc byte", func(t *testing.T, s *Store, k Key) {
			corruptOnDisk(t, s, k, func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
		}},
		{"wrong magic", func(t *testing.T, s *Store, k Key) {
			corruptOnDisk(t, s, k, func(b []byte) []byte { b[len(b)-footerSize] ^= 0xFF; return b })
		}},
		{"wrong version word", func(t *testing.T, s *Store, k Key) {
			// Re-seal a payload with a future format version: the footer is
			// valid, but the typed decoder must reject and drop it.
			body := EncodePrep(prep)
			fresh := header(nil, KindPrep, VersionPrep+1)
			fresh = append(fresh, body[2:]...)
			if err := s.Put(k, fresh); err != nil {
				t.Fatal(err)
			}
			s.SetMemCap(0) // force the next Get through the disk path
			s.SetMemCap(DefaultMemBytes)
		}},
		{"wrong kind byte", func(t *testing.T, s *Store, k Key) {
			if err := s.Put(k, EncodeMeas(&MeasCell{Ops: 1})); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTemp(t)
			k := NewKey(KindPrep, []byte("cell"))
			PutPrep(s, k, prep)
			// Drop the memory front so corruption on disk is observed.
			s.SetMemCap(0)
			s.SetMemCap(DefaultMemBytes)
			tc.corrupt(t, s, k)

			if got, ok := GetPrep(s, k); ok {
				t.Fatalf("corrupt artifact served: %+v", got)
			}
			if st := s.Stats(); st.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1 (stats %+v)", st.CorruptDropped, st)
			}
			if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
				t.Errorf("corrupt file not deleted (err=%v)", err)
			}
			// Recompute-and-repair: the next Put restores the artifact.
			PutPrep(s, k, prep)
			got, ok := GetPrep(s, k)
			if !ok || *got != *prep {
				t.Fatalf("after repair Get = %+v, %v; want %+v", got, ok, prep)
			}
		})
	}
}

// TestIOFaultInjection drives the armed store-level fault injector
// (ArmIOFaults) through both fault kinds on a populated store: every key's
// first disk read is dealt either a short read (which must surface exactly
// like on-disk corruption — drop, recompute, repair) or a transient open
// error (a plain miss with the file left intact), and the retry must always
// serve the full verified payload.
func TestIOFaultInjection(t *testing.T) {
	s := openTemp(t)
	s.SetMemCap(0) // every Get reads disk: faults are reachable
	payloads := map[Key][]byte{}
	for i := byte(0); i < 8; i++ {
		k := NewKey(KindMeas, []byte{i})
		p := bytes.Repeat([]byte{'a' + i}, 64)
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
		payloads[k] = p
	}
	s.ArmIOFaults(7, 1) // rate 1: every key's first disk read is dealt a fault
	short, open := 0, 0
	for k, want := range payloads {
		before := s.Stats()
		if got, ok := s.Get(k); ok {
			t.Fatalf("faulted first read served %q", got)
		}
		after := s.Stats()
		switch {
		case after.IOShortReads == before.IOShortReads+1:
			short++
			// A short read surfaces as corruption: the file is dropped...
			if after.CorruptDropped != before.CorruptDropped+1 {
				t.Fatalf("short read not counted as corruption: %+v -> %+v", before, after)
			}
			if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
				t.Fatalf("short-read file not dropped (err=%v)", err)
			}
			// ...and the recompute's Put repairs the store.
			if err := s.Put(k, want); err != nil {
				t.Fatal(err)
			}
		case after.IOOpenErrors == before.IOOpenErrors+1:
			open++
			// A transient open error leaves the file intact.
			if _, err := os.Stat(s.path(k)); err != nil {
				t.Fatalf("transient open error deleted the file: %v", err)
			}
		default:
			t.Fatalf("faulted read fired no fault counter: %+v -> %+v", before, after)
		}
		// The fault fired once: the retry serves the full payload.
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("retry after fault = %d bytes, %v; want the original payload", len(got), ok)
		}
	}
	if short == 0 || open == 0 {
		t.Fatalf("seed dealt short=%d open=%d faults; want both kinds (pick another seed)", short, open)
	}
}

// TestIOFaultKeepsMemFrontClean pins the LRU-front purity invariant: a
// truncated disk read must never be remembered by the in-memory front — only
// footer-verified payloads enter it, so the repair rung starts from a clean
// cache.
func TestIOFaultKeepsMemFrontClean(t *testing.T) {
	s := openTemp(t)
	k := NewKey(KindMeas, []byte("hot"))
	want := bytes.Repeat([]byte{0xAB}, 128)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	// Drop the Put's resident copy so the next Get takes the disk path.
	s.SetMemCap(0)
	s.SetMemCap(DefaultMemBytes)
	// Find a seed that deals this key a short read (the deal consumes the
	// injector's once-per-key budget, so re-arm before the real Get).
	var seed uint64
	for s.ArmIOFaults(seed, 1); s.ioFaultFor(k) != ioFaultShort; seed++ {
		s.ArmIOFaults(seed+1, 1)
	}
	s.ArmIOFaults(seed, 1)
	if _, ok := s.Get(k); ok {
		t.Fatal("short read served a payload")
	}
	s.mu.Lock()
	_, resident := s.mem[k]
	s.mu.Unlock()
	if resident {
		t.Fatal("truncated payload poisoned the LRU front")
	}
	// Repair and verify the front holds the full payload again.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("after repair Get = %d bytes, %v", len(got), ok)
	}
	if st := s.Stats(); st.MemHits == 0 {
		t.Errorf("repaired payload not resident in the front: %+v", st)
	}
}

// TestConcurrentWriters hammers one shared directory from many goroutines —
// same keys, same content, interleaved reads — and requires every read to be
// either a clean miss or the full payload: atomic rename must never expose a
// torn write.
func TestConcurrentWriters(t *testing.T) {
	s := openTemp(t)
	s.SetMemCap(0) // every Get reads disk: exercises the racy path
	const keys = 8
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1024) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for i := 0; i < keys; i++ {
					k := NewKey(KindPrep, []byte{byte(i)})
					if iter%2 == 0 {
						if err := s.Put(k, payload(i)); err != nil {
							t.Error(err)
							return
						}
					}
					if data, ok := s.Get(k); ok && !bytes.Equal(data, payload(i)) {
						t.Errorf("torn read on key %d: %d bytes", i, len(data))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.CorruptDropped != 0 {
		t.Errorf("concurrent writers caused %d corruption drops", st.CorruptDropped)
	}
}

func TestPrepRoundtrip(t *testing.T) {
	p := &PrepSummary{RAW: 1, WAR: 2, WAW: 3, BaseOps: 4, AfterOps: 5, Grafts: 6}
	got, err := DecodePrep(EncodePrep(p))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("roundtrip = %+v, want %+v", got, p)
	}
}

func TestMeasRoundtrip(t *testing.T) {
	m := &MeasCell{
		Lats:  []int{2, 6},
		Times: [][]int64{{100, 90, 80}, {200, 180, 160}},
		Ops:   123456,
	}
	got, err := DecodeMeas(EncodeMeas(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip = %+v, want %+v", got, m)
	}
}

// TestTypedGetDropsUndecodable pins the getTyped contract end to end over
// the store: a payload that passes the CRC footer but fails the codec is
// dropped and counted, and its Get counts once, as a miss.
func TestTypedGetDropsUndecodable(t *testing.T) {
	s := openTemp(t)
	k := NewKey(KindMeas, []byte("m"))
	if err := s.Put(k, []byte{byte(KindMeas), 1, 0xFF}); err != nil { // garbage body
		t.Fatal(err)
	}
	s.SetMemCap(0)
	s.SetMemCap(DefaultMemBytes)
	if _, ok := GetMeas(s, k); ok {
		t.Fatal("undecodable artifact served")
	}
	if st := s.Stats(); st.CorruptDropped != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v; want 1 corrupt drop, 0 hits, 1 miss", st)
	}
	// Nil-store safety.
	if _, ok := GetMeas(nil, k); ok {
		t.Fatal("nil store hit")
	}
	PutMeas(nil, k, &MeasCell{}) // must not panic
}
