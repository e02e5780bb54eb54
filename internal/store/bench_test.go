package store

import (
	"fmt"
	"testing"
)

// Benchmark payloads bracketing the store's working sizes: 24 B, between a
// prepare summary (10 B) and a priced cell (35–83 B), and 200 KB, far above
// the suite's largest artifact (an 83 B priced cell).
var benchSizes = []int{24, 200 << 10}

func BenchmarkStorePut(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var part [8]byte
				part[0], part[1], part[2], part[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				if err := s.Put(NewKey(KindPrep, part[:]), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreGet(b *testing.B) {
	for _, size := range benchSizes {
		for _, mem := range []bool{true, false} {
			name := fmt.Sprintf("size=%d/mem=%v", size, mem)
			b.Run(name, func(b *testing.B) {
				s, err := Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				k := NewKey(KindPrep, []byte("bench"))
				if err := s.Put(k, make([]byte, size)); err != nil {
					b.Fatal(err)
				}
				if !mem {
					s.SetMemCap(0) // every Get reads and re-verifies from disk
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := s.Get(k); !ok {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}
