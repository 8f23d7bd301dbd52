package pipeline

import (
	"sync"
	"unsafe"

	"gnbody/internal/overlap"
)

// scratch is one rank's working memory for a discover Run (DESIGN.md §6,
// "Buffer ownership"): every buffer Run and place would
// otherwise build afresh. Run takes one from scratchPool and hands it back
// when it returns, so a resident world running Run after Run — dibserve's
// jobs, a benchmark's reps — re-enters warm buffers; the count table is
// cleared, not reallocated. The pool is shared by every world in the
// process, which two rules make safe:
//
//  1. It holds only buffers this rank allocated, and only those whose last
//     reader a later collective of the same Run fences. The simulator hands
//     a sender's slices to the receivers uncopied, and a peer reads the
//     census frames it received as late as the record round (keptOccs):
//     a send is free once the round after its last reader has returned.
//     The sends of place's last round (moved) have no such round and stay
//     out, and so does every slice Alltoallv returns.
//  2. A Run that unwinds out of a raised collective drops its scratch
//     (busy is still set). A normal return pools it, also one that carries
//     a *WireError, since every round was entered.
type scratch struct {
	cen, occ, cand, task [][]byte // the sends of rounds 1, 3, 4 and 5, by destination
	keep                 [][]byte // round 2's sends, the keep bitmaps, cut from bits
	bits, rowBuf         []byte
	seen                 []uint8 // the census count table
	next                 []int
	recs, tmp            []occRec // kept records and the radix sort's other half; then dedup's handles
	cands                []candRec
	deduped, mine, kept  []overlap.Task
	users                []int32
	opts                 []option
	row                  []int64
	rows                 [][]byte // round 6's sends, each rowBuf
	busy                 bool     // a Run holds it and has not got through its last round
}

var scratchPool sync.Pool

// maxPooled is the most a pooled scratch keeps. A pooled scratch is memory
// the process holds between Runs, at the size of the largest Run it
// served: sync.Pool keeps it until two collections pass with no Run taking
// it. 64 MiB holds a rank of a million noisy k-mer instances (25 MB); a
// dense input, a 300 kb genome in error-free reads at 8x coverage, needs
// 400 MB a rank and allocates it afresh each Run.
const maxPooled = 64 << 20

// takeScratch checks a scratch out of the pool, or makes one.
func takeScratch() *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil {
		s = new(scratch)
	}
	s.busy = true
	return s
}

// release pools s, unless its Run unwound (rule 2) or it is too large.
func (s *scratch) release() {
	if !s.busy && s.size() <= maxPooled {
		scratchPool.Put(s)
	}
}

// size is the bytes s's buffers hold.
func (s *scratch) size() int {
	n := capBytes(s.bits) + capBytes(s.seen) + capBytes(s.next) + capBytes(s.recs) + capBytes(s.tmp) +
		capBytes(s.cands) + capBytes(s.deduped) + capBytes(s.mine) + capBytes(s.kept) + capBytes(s.users) +
		capBytes(s.opts) + capBytes(s.row) + capBytes(s.rowBuf)
	for _, bufs := range [][][]byte{s.cen, s.occ, s.cand, s.task} {
		for _, b := range bufs {
			n += cap(b)
		}
	}
	return n
}

// capBytes is the bytes buf's array holds.
func capBytes[T any](buf []T) int { return cap(buf) * int(unsafe.Sizeof(*new(T))) }

// grow returns buf with room for n more elements: buf itself, or a copy in
// an array of exactly that size. (slices.Grow rounds the array up, and
// under the race detector also allocates the n elements it appends.)
func grow[T any](buf []T, n int) []T {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return append(make([]T, 0, len(buf)+n), buf...)
}

// sized returns buf emptied, with room for n elements.
func sized[T any](buf []T, n int) []T { return grow(buf[:0], n) }

// zeroed sets *buf to n zero elements, reallocating only when it is short,
// and returns it.
func zeroed[T any](buf *[]T, n int) []T {
	*buf = sized(*buf, n)[:n]
	clear(*buf)
	return *buf
}

// sends sets *bufs to p empty send buffers, each keeping its capacity, and
// returns it.
func sends(bufs *[][]byte, p int) [][]byte {
	*bufs = sized(*bufs, p)[:p]
	for i := range *bufs {
		(*bufs)[i] = (*bufs)[i][:0]
	}
	return *bufs
}
