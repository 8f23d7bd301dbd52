package seq

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// Wire encoding for reads exchanged between ranks. A read on the wire is
//
//	[4 bytes little-endian ID][4 bytes little-endian n | packed<<31][body]
//
// for a read of n bases. A packed body is (n+3)/4 bytes of 2-bit codes —
// base i in bits 2(i%4) of byte i/4, A=0 … T=3 — followed by the read's
// runs of N: a uvarint count, then per run two uvarints, its distance from
// the earliest base it may start at (0 for the first run, one past the
// previous run's end after that, so runs never touch) and its length
// minus one. An N packs as A, and the bits past the last base are zero. A
// raw body is the n base codes, one byte each: AppendWire writes it only
// where packing would not be smaller, so no read ever takes more than
// WireSizeOf(n) bytes and planning from the length vector stays a bound.
//
// Every read has exactly one encoding, and DecodeWire accepts no other:
// runs out of range, uvarints longer than they need be, bits set under an
// N or past the end, and raw bodies that would pack smaller are all
// errors.

const packedFlag = 1 << 31

// seqBytes views a Seq's storage as bytes: a base code is the Base's own
// byte, so the kernels and the raw body work on the bytes directly.
func seqBytes(s Seq) []byte {
	return unsafe.Slice((*byte)(unsafe.SliceData(s)), len(s))
}

// InvalidBase returns the offset of the first byte of b that is not a base
// code, or -1 when all are.
func InvalidBase(b []byte) int { return firstAtLeast(b, NumBases) }

// HasN reports whether s holds an N (or any code beyond it).
func (s Seq) HasN() bool { return firstAtLeast(seqBytes(s), byte(N)) >= 0 }

// firstAtLeast returns the offset of the first byte of b that is >= limit
// (1 <= limit <= 0x80), or -1. The AVX2 kernel checks whole 32-byte
// blocks; the rest, or all of b without it, is checked eight bytes per
// 64-bit word: a byte is >= limit exactly when adding 0x80-limit carries
// into its high bit or that bit was already set. The byte loop runs only
// on a word that failed (to name the offset) and on the tail.
func firstAtLeast(b []byte, limit byte) int {
	const (
		ones = 0x0101010101010101
		high = 0x80 * ones
	)
	i := 0
	if useAVX2 && len(b) >= 32 {
		i = len(b) &^ 31
		if j := indexAtLeastAVX2(b[:i], limit); j >= 0 {
			return j
		}
	}
	add := uint64(0x80-limit) * ones
	for ; i+8 <= len(b); i += 8 {
		if x := binary.LittleEndian.Uint64(b[i:]); ((x+add)|x)&high != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] >= limit {
			return i
		}
	}
	return -1
}

// nextRun returns the first run of N in b at or after from, as [lo, hi);
// lo is -1 when there is none.
func nextRun(b []byte, from int) (lo, hi int) {
	i := firstAtLeast(b[from:], byte(N))
	if i < 0 {
		return -1, -1
	}
	lo = from + i
	for hi = lo + 1; hi < len(b) && b[hi] >= byte(N); hi++ {
	}
	return lo, hi
}

// runList returns the number of runs of N in b and the bytes their list
// takes on the wire.
func runList(b []byte) (count, size int) {
	next := 0
	for lo, hi := nextRun(b, 0); lo >= 0; lo, hi = nextRun(b, hi) {
		count++
		size += uvarintLen(lo-next) + uvarintLen(hi-lo-1)
		next = hi + 1
	}
	return count, size + uvarintLen(count)
}

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// EncodedSize returns the exact number of bytes AppendWire writes for r:
// never more than WireSize, and about a quarter of it for a long read.
// Unlike WireSize it needs the bases, so only the read's owner can ask.
func (r *Read) EncodedSize() int {
	n, runs := len(r.Seq), 1
	if r.Seq.HasN() {
		_, runs = runList(seqBytes(r.Seq))
	}
	return 8 + min(n, (n+3)/4+runs)
}

// AppendWire appends the wire encoding of r to dst and returns the
// extended slice. It does not grow a dst with room for EncodedSize bytes,
// and grows any other at most once for an N-free read.
func AppendWire(dst []byte, r *Read) []byte {
	b := seqBytes(r.Seq)
	n, q := len(b), (len(b)+3)/4
	at := len(dst)
	dst = slices.Grow(dst, 8+min(n, q+1)) // the least any n-base read takes
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n)|packedFlag)
	hasN := pack(dst[len(dst):len(dst)+q], b)
	count, runs := 0, 1
	if hasN {
		count, runs = runList(b)
	}
	if q+runs >= n {
		binary.LittleEndian.PutUint32(dst[at+4:], uint32(n))
		return append(dst, b...)
	}
	dst = slices.Grow(dst[:len(dst)+q], runs)
	dst = binary.AppendUvarint(dst, uint64(count))
	if !hasN {
		return dst
	}
	next := 0
	for lo, hi := nextRun(b, 0); lo >= 0; lo, hi = nextRun(b, hi) {
		dst = binary.AppendUvarint(dst, uint64(lo-next))
		dst = binary.AppendUvarint(dst, uint64(hi-lo-1))
		next = hi + 1
	}
	return dst
}

// WireHeader returns the ID and base count of the read at the front of
// buf without touching its body, so a receiver can check both against
// what it asked for before it sizes or unpacks anything.
func WireHeader(buf []byte) (ReadID, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("seq: wire: short header (%d bytes)", len(buf))
	}
	return ReadID(binary.LittleEndian.Uint32(buf[0:4])), int(binary.LittleEndian.Uint32(buf[4:8]) &^ packedFlag), nil
}

// DecodeWire decodes one read from the front of buf, returning the read and
// the number of bytes consumed.
func DecodeWire(buf []byte) (Read, int, error) {
	return DecodeWireInto(nil, buf)
}

// DecodeWireInto is DecodeWire decoding the bases into dst (grown as
// needed), so a caller looping over a receive buffer reuses one sequence
// buffer instead of allocating per read. The returned read's Seq aliases
// dst's backing array; it is valid until the buffer's next reuse, and a
// caller that retains it must Clone it first. Nothing is allocated before
// the body is known to be in buf, so a forged length costs at most four
// bases a byte received.
func DecodeWireInto(dst Seq, buf []byte) (Read, int, error) {
	id, n, err := WireHeader(buf)
	if err != nil {
		return Read{}, 0, err
	}
	q := (n + 3) / 4
	packed := buf[7]&0x80 != 0
	body := n
	if packed {
		body = q + 1
	}
	if len(buf) < 8+body {
		return Read{}, 0, fmt.Errorf("seq: wire: short body: need %d bytes, have %d", 8+body, len(buf))
	}
	var s Seq
	if dst != nil && cap(dst) >= n {
		s = dst[:n]
	} else {
		s = make(Seq, n) // non-nil even for n == 0, matching DecodeWire
	}
	if !packed {
		raw := buf[8 : 8+n]
		if i := InvalidBase(raw); i >= 0 {
			return Read{}, 0, fmt.Errorf("seq: wire: invalid base code %d at offset %d", raw[i], 8+i)
		}
		if _, runs := runList(raw); q+runs < n {
			return Read{}, 0, fmt.Errorf("seq: wire: %d raw bases would pack smaller", n)
		}
		copy(seqBytes(s), raw)
		return Read{ID: id, Seq: s}, 8 + n, nil
	}
	if r := n % 4; r != 0 && buf[8+q-1]>>(2*r) != 0 {
		return Read{}, 0, fmt.Errorf("seq: wire: bits set past base %d", n)
	}
	b := seqBytes(s)
	unpack(b, buf[8:8+q])
	used, err := applyRuns(b, buf[8+q:])
	if err != nil {
		return Read{}, 0, err
	}
	if q+used >= n {
		return Read{}, 0, fmt.Errorf("seq: wire: %d packed bases would be no larger raw", n)
	}
	return Read{ID: id, Seq: s}, 8 + q + used, nil
}

// applyRuns reads the run list at the front of list and writes N over
// each run in the unpacked bases b, returning the list's size. Each run
// must lie in b, after the previous one with a gap, over bases that
// unpacked as A.
func applyRuns(b, list []byte) (int, error) {
	count, used, ok := uvarint(list, len(b))
	if !ok {
		return 0, fmt.Errorf("seq: wire: bad run count")
	}
	next := 0
	for i := 0; i < count; i++ {
		gap, k1, ok1 := uvarint(list[used:], len(b))
		if !ok1 {
			return 0, fmt.Errorf("seq: wire: bad run %d of %d", i, count)
		}
		long, k2, ok2 := uvarint(list[used+k1:], len(b))
		used += k1 + k2
		lo := next + gap
		hi := lo + long + 1
		if !ok2 || hi > len(b) {
			return 0, fmt.Errorf("seq: wire: bad run %d of %d", i, count)
		}
		run := b[lo:hi]
		if firstAtLeast(run, 1) >= 0 {
			return 0, fmt.Errorf("seq: wire: bits set under the N at %d", lo)
		}
		for j := range run {
			run[j] = byte(N)
		}
		next = hi + 1
	}
	return used, nil
}

// uvarint reads a uvarint of at most limit from the front of b, in the
// fewest bytes that hold it.
func uvarint(b []byte, limit int) (v, used int, ok bool) {
	x, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) || x > uint64(limit) {
		return 0, 0, false
	}
	return int(x), k, true
}

// DecodeWireAll decodes a whole message of concatenated reads.
func DecodeWireAll(buf []byte) ([]Read, error) {
	var out []Read
	for len(buf) > 0 {
		r, n, err := DecodeWire(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}
