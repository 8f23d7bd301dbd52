// Package seq provides the base sequence types for the gnbody library:
// the 5-letter DNA alphabet {A,C,G,T,N}, reads, reverse complementation,
// and read-set statistics.
//
// Long-read sequencers emit reads over a 5-character alphabet: the four
// bases plus 'N' for low-confidence calls (paper §2). All routines in this
// package treat 'N' as a first-class letter; k-mer code (package kmer)
// skips windows containing it.
package seq

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// Base is a single nucleotide code. The canonical encoding is
// A=0, C=1, G=2, T=3, N=4. The wire format packs A,C,G,T in 2 bits and
// lists the runs of N beside them (AppendWire).
type Base byte

// Canonical base codes.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
	N Base = 4

	// NumBases is the alphabet size including N.
	NumBases = 5
)

// baseToChar maps base codes to their ASCII letters.
var baseToChar = [NumBases]byte{'A', 'C', 'G', 'T', 'N'}

// charToBase maps ASCII to base codes; 0xFF marks invalid characters.
var charToBase [256]byte

func init() {
	for i := range charToBase {
		charToBase[i] = 0xFF
	}
	for b, c := range baseToChar {
		charToBase[c] = byte(b)
		charToBase[c|0x20] = byte(b) // lower-case aliases
	}
	charToBase['U'] = byte(T) // tolerate RNA input
	charToBase['u'] = byte(T)
}

// Char returns the ASCII letter for b.
func (b Base) Char() byte {
	if b >= NumBases {
		return '?'
	}
	return baseToChar[b]
}

// Complement returns the Watson-Crick complement; N complements to N.
func (b Base) Complement() Base {
	if b >= N {
		return N
	}
	return 3 - b
}

// BaseFromChar converts an ASCII letter to a base code.
// ok is false for characters outside the {A,C,G,T,N,U} set (any case).
func BaseFromChar(c byte) (b Base, ok bool) {
	v := charToBase[c]
	if v == 0xFF {
		return 0, false
	}
	return Base(v), true
}

// Seq is a DNA sequence stored one base code per byte.
// It is the working representation for alignment and k-mer extraction.
type Seq []Base

// FromString parses an ASCII sequence into a Seq.
// Invalid characters yield an error naming the first offending position.
func FromString(s string) (Seq, error) {
	out := make(Seq, len(s))
	if i := decodeBases(out, unsafe.Slice(unsafe.StringData(s), len(s))); i >= 0 {
		return nil, fmt.Errorf("seq: invalid character %q at position %d", s[i], i)
	}
	return out, nil
}

// decodeBases writes the codes of the letters in src to dst[:len(src)]
// and returns the index of the first byte of src that is no base letter,
// or -1. Past that byte dst holds garbage. Lines of 32 letters or more go
// to the AVX2 decoder (pack_amd64.s), everything else to the table loop,
// which is also its oracle.
func decodeBases(dst []Base, src []byte) int {
	if useAVX2 && len(src) >= 32 {
		return decodeAVX2(dst[:len(src)], src)
	}
	return decodeTable(dst, src)
}

// decodeTable is decodeBases one charToBase lookup a byte.
func decodeTable(dst []Base, src []byte) int {
	dst = dst[:len(src)]
	for i, c := range src {
		b := charToBase[c]
		if b == 0xFF {
			return i
		}
		dst[i] = Base(b)
	}
	return -1
}

// checkBases is decodeBases into scratch, len(scratch) bytes at a time,
// with the codes thrown away: the index of the first byte of src that is
// no base letter, or -1.
func checkBases(scratch Seq, src []byte) int {
	for i := 0; i < len(src); i += len(scratch) {
		if j := decodeBases(scratch, src[i:min(i+len(scratch), len(src))]); j >= 0 {
			return i + j
		}
	}
	return -1
}

// MustFromString is FromString for trusted literals; it panics on error.
func MustFromString(s string) Seq {
	q, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the sequence as ASCII letters.
func (s Seq) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Char())
	}
	return sb.String()
}

// Clone returns an independent copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// ReverseComplement returns the reverse complement of s as a new Seq.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// CountN reports how many positions hold the ambiguous base N.
func (s Seq) CountN() int {
	n := 0
	for _, b := range s {
		if b == N {
			n++
		}
	}
	return n
}

// ReadID identifies a read globally across all ranks. IDs are dense
// [0, N) indices assigned at load time; the partitioner maps them to owners.
type ReadID uint32

// Read is a single long read: a name, the sequence, and its global ID.
type Read struct {
	ID   ReadID
	Name string
	Seq  Seq
}

// Len returns the read length in bases.
func (r *Read) Len() int { return len(r.Seq) }

// WireSize returns the planned wire size of this read: 4 bytes of ID, 4
// bytes of length and one byte per base, the most AppendWire ever writes
// for it (EncodedSize is the exact size). The drivers use it for memory
// budgeting and the stores for their resident footprint.
func (r *Read) WireSize() int { return 8 + len(r.Seq) }

// WireSizeOf returns the planned wire size for a read of n bases without
// materialising a Read: a bound any rank can compute from the length
// vector alone.
func WireSizeOf(n int) int { return 8 + n }

// ReadSet is an ordered collection of reads with dense IDs.
// Reads[i].ID == ReadID(i) is an invariant maintained by the constructors.
type ReadSet struct {
	Reads []Read
}

// NewReadSet builds a ReadSet from raw sequences, assigning dense IDs and
// synthetic names where names are empty.
func NewReadSet(seqs []Seq) *ReadSet {
	rs := &ReadSet{Reads: make([]Read, len(seqs))}
	for i, s := range seqs {
		rs.Reads[i] = Read{ID: ReadID(i), Name: fmt.Sprintf("read%d", i), Seq: s}
	}
	return rs
}

// Len returns the number of reads.
func (rs *ReadSet) Len() int { return len(rs.Reads) }

// Get returns the read with the given ID.
func (rs *ReadSet) Get(id ReadID) *Read { return &rs.Reads[id] }

// TotalBases sums the lengths of all reads.
func (rs *ReadSet) TotalBases() int64 {
	var t int64
	for i := range rs.Reads {
		t += int64(len(rs.Reads[i].Seq))
	}
	return t
}

// Stats summarises a read set; it backs Table 1-style reporting.
type Stats struct {
	Count      int
	TotalBases int64
	MinLen     int
	MaxLen     int
	MeanLen    float64
	MedianLen  int
	N50        int // length such that reads >= N50 cover half the bases
}

// ComputeStats derives summary statistics for the read set.
func (rs *ReadSet) ComputeStats() Stats {
	lens := make([]int32, rs.Len())
	for i := range rs.Reads {
		lens[i] = int32(len(rs.Reads[i].Seq))
	}
	return StatsFromLens(lens)
}

// StatsFromLens derives the same summary from a length vector alone —
// the replicated stage-1 metadata — so distributed workers can report
// dataset statistics without holding any remote bases.
func StatsFromLens(lens32 []int32) Stats {
	st := Stats{Count: len(lens32)}
	if st.Count == 0 {
		return st
	}
	lens := make([]int, len(lens32))
	for i, l := range lens32 {
		lens[i] = int(l)
		st.TotalBases += int64(l)
	}
	sort.Ints(lens)
	st.MinLen = lens[0]
	st.MaxLen = lens[len(lens)-1]
	st.MeanLen = float64(st.TotalBases) / float64(st.Count)
	st.MedianLen = lens[len(lens)/2]
	// N50: walk from the longest read down until half the bases are covered.
	half := st.TotalBases / 2
	var acc int64
	for i := len(lens) - 1; i >= 0; i-- {
		acc += int64(lens[i])
		if acc >= half {
			st.N50 = lens[i]
			break
		}
	}
	return st
}

// String renders the stats on one line.
func (st Stats) String() string {
	return fmt.Sprintf("reads=%d bases=%d len[min=%d med=%d mean=%.0f max=%d N50=%d]",
		st.Count, st.TotalBases, st.MinLen, st.MedianLen, st.MeanLen, st.MaxLen, st.N50)
}
