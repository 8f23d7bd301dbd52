package seq

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// benchFASTA writes 400 reads of 10 000 bases (a few N among them) in
// 80-column lines, as the read-exchange benchmark lays out its input:
// about 4 MB.
func benchFASTA(b *testing.B) (string, int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	seqs := make([]Seq, 400)
	for i := range seqs {
		s := make(Seq, 10000)
		for j := range s {
			s[j] = Base(rng.Intn(4))
			if rng.Intn(1000) == 0 {
				s[j] = N
			}
		}
		seqs[i] = s
	}
	path := filepath.Join(b.TempDir(), "reads.fa")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteFASTA(f, NewReadSet(seqs), 80); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, fi.Size()
}

// BenchmarkIndexFile times the metadata pass: every line split, every base
// checked, no base kept.
func BenchmarkIndexFile(b *testing.B) {
	path, size := benchFASTA(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IndexFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadFileRange times the owner-only load of two ranks' halves
// of the file from one index.
func BenchmarkLoadFileRange(b *testing.B) {
	path, size := benchFASTA(b)
	ix, err := IndexFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range [][2]int{{0, ix.N() / 2}, {ix.N() / 2, ix.N()}} {
			if _, err := LoadFileRange(path, ix, r[0], r[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
