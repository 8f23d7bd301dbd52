package core

import (
	"testing"
	"time"
	"unsafe"

	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// loopRT is a minimal synchronous runtime for exercising one rank's RPC
// paths in isolation: AsyncCall answers every request with a canned
// response, inline on the caller's goroutine. Only what the fetcher touches
// is implemented meaningfully; the one collective it never uses
// panics to catch accidental reliance.
type loopRT struct {
	m    rt.Metrics
	resp []byte
}

func (l *loopRT) Rank() int                                  { return 0 }
func (l *loopRT) Size() int                                  { return 2 }
func (l *loopRT) Barrier()                                   {}
func (l *loopRT) SplitBarrier() func()                       { return func() {} }
func (l *loopRT) Alltoallv([][]byte) [][]byte                { panic("loopRT: Alltoallv unused") }
func (l *loopRT) Allreduce(v int64, _ rt.Op) int64           { return v }
func (l *loopRT) Serve(func(req []byte) []byte)              {}
func (l *loopRT) AsyncCall(_ int, _ []byte, cb func([]byte)) { cb(l.resp) }
func (l *loopRT) Progress() bool                             { return false }
func (l *loopRT) Outstanding() int                           { return 0 }
func (l *loopRT) Drain(int)                                  {}
func (l *loopRT) Charge(rt.Category, time.Duration)          {}
func (l *loopRT) Timed(_ rt.Category, f func())              { f() }
func (l *loopRT) Alloc(int64)                                {}
func (l *loopRT) Free(int64)                                 {}
func (l *loopRT) MemBudget() int64                           { return 0 }
func (l *loopRT) Metrics() *rt.Metrics                       { return &l.m }
func (l *loopRT) Tracer() *trace.Buf                         { return nil }

// fetchHarness builds a 2-rank world where rank 0 (this rank) pulls read 1
// from rank 1 through a cache-disabled fetcher, for a task group of one
// task under NoopExecutor. The response is pre-encoded once, so
// measurements see only the puller's side.
func fetchHarness(t *testing.T, blen int) (*fetcher, waiter) {
	t.Helper()
	bases := make(seq.Seq, blen)
	for i := range bases {
		bases[i] = seq.Base(i & 3)
	}
	reads := seq.NewReadSet([]seq.Seq{make(seq.Seq, blen), bases})
	lens := []int32{int32(blen), int32(blen)}
	pt, err := partition.BySize([]int{blen, blen}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := seq.Scope(reads, 0, 1, lens)
	in := &Input{Part: pt, Lens: lens, Codec: RealCodec{Store: st}, Store: st}
	owner := RealCodec{Store: seq.Scope(reads, 1, 2, lens)}
	r := &loopRT{resp: owner.Encode(nil, 1)}
	f, _, err := begin(r, in, &Config{Exec: NoopExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	task := &overlap.Task{A: 0, B: 1, Seed: overlap.Seed{K: 17}}
	return f, waiter{id: 1, tasks: []*overlap.Task{task}}
}

// pooled is the one scratch buffer a finished cache-off pull left in f's
// pool: every buffer checked out must be back, and exactly one exists.
func pooled(t *testing.T, f *fetcher) *seq.Base {
	t.Helper()
	if f.scratch.out != 0 || len(f.scratch.free) != 1 {
		t.Fatalf("scratch pool: %d out, %d free; want 0 and 1", f.scratch.out, len(f.scratch.free))
	}
	return unsafe.SliceData(f.scratch.free[0])
}

// TestFetchAllocFree pins the cache-off pull path: with a warm fetcher, a
// fetch performs no per-base allocation — the payload decodes into the
// pooled scratch buffer instead of a fresh bases copy per pull. The two
// allocations left are the encoded request and the completion closure,
// both O(1) in read length; the request's waiter list and the group's
// batcher are recycled.
func TestFetchAllocFree(t *testing.T) {
	fc, w := fetchHarness(t, 32<<10)
	fetchOnce := func() { fc.fetch(w) }
	fetchOnce() // warm the scratch pool and the batcher
	allocs := testing.AllocsPerRun(100, fetchOnce)
	if allocs > 2 {
		t.Errorf("cache-off fetch: %.1f allocs/op, want <= 2 (request + closure only)", allocs)
	}
	if got := cap(fc.scratch.free[0]); got != 32<<10 {
		t.Fatalf("decode buffer holds %d bases, want %d", got, 32<<10)
	}
}

// TestFetchScratchReuse pins the buffer lifecycle: a pull decodes into a
// buffer checked out of the pool, and the group's release returns it, so
// consecutive pulls decode into the same buffer.
func TestFetchScratchReuse(t *testing.T) {
	fc, w := fetchHarness(t, 4096)
	fc.fetch(w)
	if fc.out.WireFetches != 1 {
		t.Fatalf("%d wire fetches, want 1", fc.out.WireFetches)
	}
	first := pooled(t, fc)
	fc.fetch(w)
	if pooled(t, fc) != first {
		t.Error("second fetch did not reuse the scratch buffer")
	}
}
