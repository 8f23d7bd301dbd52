package seq

import (
	"compress/gzip"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
)

// FileIndex is the cheap metadata pass over a FASTA/FASTQ file: one entry
// per record — byte offset of the record's first line (in the uncompressed
// stream), read length, and name — with no sequence bases materialised.
// It is the paper's stage-1 replicated metadata: every rank may hold it
// (O(n) ints plus names), while sequence payloads stay owner-only.
type FileIndex struct {
	Format  byte // '>' (FASTA) or '@' (FASTQ)
	Gzip    bool // true when the file is gzip-compressed (offsets are uncompressed)
	Offsets []int64
	Lens    []int32
	Names   []string
}

// N returns the record count.
func (ix *FileIndex) N() int { return len(ix.Lens) }

// TotalBytes returns the global wire size of the whole read set — the
// denominator of the per-rank residency assertions.
func (ix *FileIndex) TotalBytes() int64 {
	var n int64
	for _, l := range ix.Lens {
		n += int64(WireSizeOf(int(l)))
	}
	return n
}

// Checksum hashes the record count, lengths and names into one int64.
// Ranks of a distributed job index their input independently; agreeing on
// the checksum (allreduce min == max) is the small collective that
// certifies every rank derived the same global metadata.
func (ix *FileIndex) Checksum() int64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(ix.N()))
	for i, l := range ix.Lens {
		put(uint64(uint32(l)))
		io.WriteString(h, ix.Names[i])
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// IndexReader scans one FASTA/FASTQ stream (not gzipped — callers unwrap
// first; IndexFile does) and builds the metadata index. Validation is as
// strict as the full parsers: an input IndexReader accepts, the parsers
// accept, with identical lengths and names.
func IndexReader(r io.Reader) (*FileIndex, error) {
	lr := newLineReader(r, 0)
	format, err := lr.format()
	if err != nil {
		return nil, err
	}
	ix := &FileIndex{Format: format}
	n := 0
	scratch := make(Seq, 4096)
	err = lr.walk(format, func(text []byte) error {
		ix.Offsets = append(ix.Offsets, lr.off)
		ix.Names = append(ix.Names, headerName(text, len(ix.Names)))
		n = 0
		return nil
	}, func(text []byte) error {
		if j := checkBases(scratch, text); j >= 0 {
			return fmt.Errorf("%s: line %d: invalid character %q", kindOf(format), lr.line, text[j])
		}
		n += len(text)
		return nil
	}, func() error {
		ix.Lens = append(ix.Lens, int32(n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// IndexFile builds the metadata index for a FASTA/FASTQ file, gunzipping
// by magic bytes like LoadFile.
func IndexFile(path string) (*FileIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, gz, err := gunzip(f)
	if err == nil {
		var ix *FileIndex
		if ix, err = IndexReader(src); err == nil {
			ix.Gzip = gz
			return ix, nil
		}
	}
	return nil, fmt.Errorf("seq: %s: %w", path, err)
}

// LoadFileRange parses only records [lo, hi) of an indexed file into an
// owner-only SliceStore carrying the global length vector. Plain files
// seek straight to the record boundary (offsets never split a record);
// gzip streams from the start but materialises bases for the owned range
// only, so residency holds either way. Each read is one allocation of the
// length the index gives it, and its lines decode straight into it. Where
// the file no longer matches the index — a record is longer or shorter,
// holds a byte that is no base, or is missing — the load fails naming the
// record, and writes nothing past any read's buffer.
func LoadFileRange(path string, ix *FileIndex, lo, hi int) (*SliceStore, error) {
	if lo < 0 || hi < lo || hi > ix.N() {
		return nil, fmt.Errorf("seq: %s: record range [%d,%d) outside [0,%d)", path, lo, hi, ix.N())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reads, err := loadRange(f, ix, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return NewSliceStore(lo, reads, ix.Lens)
}

// loadRange decodes records [lo, hi) of the indexed file f. Records of a
// gzip stream before lo are decoded into a scratch buffer and dropped, so
// they are checked against the index too. Every error names the record it
// met; after a seek, line numbers count from record lo's header.
func loadRange(f *os.File, ix *FileIndex, lo, hi int) ([]Read, error) {
	reads := make([]Read, 0, hi-lo)
	if lo == hi {
		return reads, nil
	}
	var lr *lineReader
	id := lo
	if ix.Gzip {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		lr, id = newLineReader(zr, 0), 0
	} else {
		if _, err := f.Seek(ix.Offsets[lo], io.SeekStart); err != nil {
			return nil, err
		}
		lr = newLineReader(f, ix.Offsets[lo])
	}
	var s, scratch Seq
	n := 0
	err := lr.walk(ix.Format, func(text []byte) error {
		if string(firstField(text[1:])) != ix.Names[id] && headerName(text, id) != ix.Names[id] {
			return fmt.Errorf("the header at offset %d is %q", lr.off, text)
		}
		s, n = nil, 0
		switch l := int(ix.Lens[id]); {
		case id < lo:
			scratch = slices.Grow(scratch[:0], l)[:l]
			s = scratch
		case l > 0:
			s = make(Seq, l)
		}
		return nil
	}, func(text []byte) error {
		if len(text) > len(s)-n {
			return fmt.Errorf("line at offset %d: more than the %d bases the index gives the record", lr.off, len(s))
		}
		if j := decodeBases(s[n:], text); j >= 0 {
			return fmt.Errorf("line at offset %d: invalid character %q", lr.off, text[j])
		}
		n += len(text)
		return nil
	}, func() error {
		if n < len(s) {
			return fmt.Errorf("%d bases, but the index gives it %d", n, len(s))
		}
		if id >= lo {
			reads = append(reads, Read{ID: ReadID(id), Name: ix.Names[id], Seq: s})
		}
		if id++; id == hi {
			return errStop
		}
		return nil
	})
	if err == nil && id < hi {
		err = errors.New("missing: the input ends before it")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: record %d (%s): %w", kindOf(ix.Format), id, ix.Names[id], err)
	}
	return reads, nil
}
