// Package kmer implements k-mer extraction, canonical encoding, counting,
// and the BELLA-style reliable-k-mer frequency window used to select seeds.
//
// The pipeline (paper §2-3): slide a window of length k over every read;
// skip windows containing 'N'; canonicalise each k-mer against its reverse
// complement so both strands hash together; build a global histogram; retain
// only k-mers whose frequency falls inside a reliability window derived from
// the dataset's coverage and error rate (the BELLA model [13]); the retained
// ("filtered") k-mers seed candidate overlaps.
//
// k is small (order 10-20; the paper uses k=17) because high error rates
// make long exact matches rare, so 2-bit codes fit a uint64 for k ≤ 31.
package kmer

import (
	"fmt"
	"math"
	"sort"

	"gnbody/internal/seq"
)

// MaxK is the largest supported k (2 bits per base in a uint64, one spare
// bit pair so code values never collide with the invalid marker).
const MaxK = 31

// Code is a 2-bit-packed canonical k-mer.
type Code uint64

// Encode packs s[i:i+k] into a forward-strand code.
// The caller must guarantee the window is N-free.
func Encode(s seq.Seq, i, k int) Code {
	var c Code
	for j := 0; j < k; j++ {
		c = c<<2 | Code(s[i+j])
	}
	return c
}

// revComp returns the reverse-complement code of c for word size k.
func revComp(c Code, k int) Code {
	var r Code
	for j := 0; j < k; j++ {
		r = r<<2 | (3 - c&3)
		c >>= 2
	}
	return r
}

// Canonical returns min(code, revcomp(code)) so that a k-mer and its
// reverse complement share one identity regardless of strand.
func Canonical(c Code, k int) Code {
	r := revComp(c, k)
	if r < c {
		return r
	}
	return c
}

// Decode expands a code back to a sequence (forward orientation of the
// stored code).
func Decode(c Code, k int) seq.Seq {
	out := make(seq.Seq, k)
	for j := k - 1; j >= 0; j-- {
		out[j] = seq.Base(c & 3)
		c >>= 2
	}
	return out
}

// Occurrence locates one k-mer instance: the read, the offset of the
// window's first base, and whether the canonical code is the reverse
// complement of the window as it appears in the read (RC). Seeds are built
// from pairs of occurrences of the same canonical k-mer on different reads;
// two occurrences with differing RC flags anchor an opposite-strand overlap.
type Occurrence struct {
	Read seq.ReadID
	Pos  int32
	RC   bool
}

// Scan calls fn for every N-free window of r, passing the window position,
// the canonical code, and whether canonicalisation flipped the strand (a
// palindromic window reports false). The forward code and its reverse
// complement both roll in O(1) per base, and the scan restarts cleanly
// after runs of N: stale bits are shifted or masked out of both codes
// before valid reaches k again.
func Scan(r *seq.Read, k int, fn func(pos int, canon Code, rc bool)) error {
	if k <= 0 || k > MaxK {
		return fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxK)
	}
	mask := Code(1)<<(2*uint(k)) - 1
	top := 2 * uint(k-1) // where the newest base's complement enters rev
	var fwd, rev Code
	valid := 0 // number of consecutive non-N bases ending at current position
	for i, b := range r.Seq {
		if b >= seq.N {
			valid = 0
			continue
		}
		fwd = (fwd<<2 | Code(b)) & mask
		rev = rev>>2 | Code(3-b)<<top
		if valid++; valid < k {
			continue
		}
		canon, rc := fwd, false
		if rev < fwd {
			canon, rc = rev, true
		}
		fn(i-k+1, canon, rc)
	}
	return nil
}

// CountSet builds the canonical k-mer histogram for a read set.
// This is the serial reference used by tests and by the single-rank path;
// the distributed histogram lives in the pipeline driver.
func CountSet(rs *seq.ReadSet, k int) (map[Code]int, error) {
	h := make(map[Code]int)
	for i := range rs.Reads {
		err := Scan(&rs.Reads[i], k, func(_ int, c Code, _ bool) { h[c]++ })
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Index maps each canonical k-mer to its occurrences across the read set,
// keeping only k-mers whose total count lies within [lo, hi]. Occurrences
// are appended in read order, then position order — deterministic.
//
// keepPerRead caps occurrences recorded per (k-mer, read): a k-mer that
// appears many times within one read contributes a single occurrence per
// read when keepPerRead is 1, which is how candidate pairs stay one-per-seed.
func Index(rs *seq.ReadSet, k, lo, hi, keepPerRead int) (map[Code][]Occurrence, error) {
	counts, err := CountSet(rs, k)
	if err != nil {
		return nil, err
	}
	idx := make(map[Code][]Occurrence)
	for i := range rs.Reads {
		r := &rs.Reads[i]
		lastRead := make(map[Code]int) // per-read occurrence counts this read
		err := Scan(r, k, func(pos int, c Code, rc bool) {
			n, ok := counts[c]
			if !ok || n < lo || n > hi {
				return
			}
			if keepPerRead > 0 && lastRead[c] >= keepPerRead {
				return
			}
			lastRead[c]++
			idx[c] = append(idx[c], Occurrence{Read: r.ID, Pos: int32(pos), RC: rc})
		})
		if err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// Spectrum summarises a histogram as sorted (frequency, #kmers) pairs,
// used for reporting and for sanity plots in examples.
func Spectrum(h map[Code]int) [][2]int {
	byFreq := map[int]int{}
	for _, n := range h {
		byFreq[n]++
	}
	out := make([][2]int, 0, len(byFreq))
	for f, n := range byFreq {
		out = append(out, [2]int{f, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// ReliableWindow computes the BELLA-style retention window [Lo, Hi] for
// k-mer frequencies, given sequencing depth d, per-base error rate e, and k.
//
// Model (Guidi et al. [13]): a genomic position is covered by ≈d reads; a
// k-mer instance survives sequencing error-free with probability
// p = (1-e)^k, so the copy count of a unique genomic k-mer is ≈
// Binomial(d, p). The window keeps counts that are plausible for unique
// k-mers: Lo = 2 (a k-mer must occur on ≥2 reads to pair them) and Hi = the
// smallest m with P(Binomial(d,p) ≤ m) ≥ 1-tail — counts above Hi are
// overwhelmingly repeats and are discarded as uninformative/expensive.
func ReliableWindow(d, e float64, k int, tail float64) (lo, hi int) {
	if tail <= 0 {
		tail = 1e-4
	}
	p := math.Pow(1-e, float64(k))
	n := int(math.Round(d))
	if n < 1 {
		n = 1
	}
	lo = 2
	// Walk the binomial CDF until it reaches 1-tail.
	cdf := 0.0
	for m := 0; m <= n; m++ {
		cdf += binomPMF(n, m, p)
		if cdf >= 1-tail {
			hi = m
			break
		}
		hi = m
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// binomPMF returns P(Binomial(n,p) = m), computed in log space so it holds
// up for the n≈100 coverages in the paper.
func binomPMF(n, m int, p float64) float64 {
	if p <= 0 {
		if m == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if m == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, m) + float64(m)*math.Log(p) + float64(n-m)*math.Log(1-p)
	return math.Exp(lg)
}

// lchoose returns log C(n, m) via log-gamma.
func lchoose(n, m int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(m) - lg(n-m)
}
