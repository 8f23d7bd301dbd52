// Package core implements the paper's contribution: two distributed-memory
// coordination strategies for many-to-many long-read alignment, written
// once against the rt.Runtime interface so the identical algorithms run on
// the real in-process runtime (package par) and under the performance
// simulator (package sim).
//
//   - RunBSP (§3.1): bulk-synchronous — an aggregated irregular all-to-all
//     read exchange, split into dynamically-sized supersteps when the
//     per-rank memory budget cannot hold a full exchange; alignments are
//     computed as reads are unpacked from receive buffers; local task state
//     lives in flat arrays.
//   - RunAsync (§3.2): asynchronous — per-remote-read pull RPCs whose
//     completion callbacks run the alignments for that read; bounded
//     outstanding requests; application-level polling; a split-phase entry
//     barrier overlapping local-local work; a single exit barrier keeping
//     partitioned reads servable until every rank finishes; pointer-based
//     task structures.
//
// Both honour a communication-only mode (§4.3) via NoopExecutor, and both
// must produce identical result sets — the central cross-implementation
// invariant of the test suite.
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Hit is one saved alignment: a task whose score met the criteria
// ("only those alignments which meet or exceed the user or default scoring
// criteria are saved for output", §3.2). Extents are the aligned regions;
// when RC is set the B coordinates refer to the reverse complement of read
// B (as produced by overlap.AlignTask). Model-mode runs leave extents zero.
type Hit struct {
	A, B         seq.ReadID
	Score        int32
	AStart, AEnd int32
	BStart, BEnd int32
	RC           bool
}

// SortHits orders hits for deterministic comparison: by (A, B, Score),
// then the rest of the record, so tied hits have one order too.
func SortHits(hs []Hit) {
	slices.SortFunc(hs, func(a, b Hit) int {
		switch {
		case a.A != b.A:
			return cmp.Compare(a.A, b.A)
		case a.B != b.B:
			return cmp.Compare(a.B, b.B)
		case a.Score != b.Score:
			return cmp.Compare(a.Score, b.Score)
		}
		return cmpExtents(a, b)
	})
}

// cmpExtents orders hits by (RC, AStart, BStart, AEnd, BEnd), forward
// strand first.
func cmpExtents(a, b Hit) int {
	switch {
	case a.RC != b.RC:
		if a.RC {
			return 1
		}
		return -1
	case a.AStart != b.AStart:
		return cmp.Compare(a.AStart, b.AStart)
	case a.BStart != b.BStart:
		return cmp.Compare(a.BStart, b.BStart)
	case a.AEnd != b.AEnd:
		return cmp.Compare(a.AEnd, b.AEnd)
	}
	return cmp.Compare(a.BEnd, b.BEnd)
}

// Codec encodes reads for the wire. The real codec ships packed sequence
// bases; the phantom codec ships correctly-sized zero payloads so the
// simulator prices the paper's exchanges without materialising gigabases.
type Codec interface {
	// Encode appends the wire form of read id to dst.
	Encode(dst []byte, id seq.ReadID) []byte
	// WireSize returns the exact wire size of read id, which this rank
	// must own; it is at most seq.WireSizeOf of the read's length.
	WireSize(id seq.ReadID) int
	// Decode parses one read from buf, returning the read (Seq may be nil
	// under the phantom codec) and bytes consumed.
	Decode(buf []byte) (seq.Read, int, error)
	// DecodeInto is Decode reusing dst (grown as needed) for the bases, so
	// unpack loops stop allocating per read. The returned Seq may alias dst;
	// it is valid until dst's next reuse and must be Cloned if retained.
	DecodeInto(dst seq.Seq, buf []byte) (seq.Read, int, error)
}

// RealCodec ships actual read payloads in the seq wire format: 2-bit
// bases with the runs of N listed beside them. It encodes from the rank's
// owner-only store, so Encode on a non-resident read is a residency
// violation — exactly the property the store enforces: a rank can only
// serve bases it owns.
type RealCodec struct{ Store seq.Store }

// Encode appends the wire encoding of read id (must be resident).
func (c RealCodec) Encode(dst []byte, id seq.ReadID) []byte {
	return seq.AppendWire(dst, c.Store.Get(id))
}

// WireSize returns the read's exact wire size. Packing depends on where
// the read's Ns are, so it needs the bases and only the owner may ask;
// planning on every other rank uses Input.planSize.
func (c RealCodec) WireSize(id seq.ReadID) int { return c.Store.Get(id).EncodedSize() }

// Decode parses one wire-encoded read.
func (c RealCodec) Decode(buf []byte) (seq.Read, int, error) { return seq.DecodeWire(buf) }

// DecodeInto parses one wire-encoded read into dst.
func (c RealCodec) DecodeInto(dst seq.Seq, buf []byte) (seq.Read, int, error) {
	return seq.DecodeWireInto(dst, buf)
}

// PhantomCodec ships what the paper's exchange ships — the seq wire header
// and one byte per base, here zeros — so exchange volumes, memory
// accounting and message pricing follow the paper's byte payload while the
// simulated dataset needs no actual bases (the model executor works from
// task metadata).
type PhantomCodec struct{ Lens []int32 }

// Encode appends a header plus a zero body of the read's length, without
// materialising a sequence to throw away.
func (c PhantomCodec) Encode(dst []byte, id seq.ReadID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Lens[id]))
	return append(dst, make([]byte, c.Lens[id])...) // compiles to a zeroing grow, no temp
}

// WireSize returns the modeled wire size.
func (c PhantomCodec) WireSize(id seq.ReadID) int { return seq.WireSizeOf(int(c.Lens[id])) }

// Decode parses the header and skips the body (Seq nil): phantom payloads
// carry no bases worth copying or validating.
func (c PhantomCodec) Decode(buf []byte) (seq.Read, int, error) {
	id, n, err := seq.WireHeader(buf)
	if err != nil {
		return seq.Read{}, 0, err
	}
	if len(buf) < 8+n {
		return seq.Read{}, 0, fmt.Errorf("core: phantom wire: short body: need %d bytes, have %d", 8+n, len(buf))
	}
	return seq.Read{ID: id}, 8 + n, nil
}

// DecodeInto is Decode; there is no body to land in dst.
func (c PhantomCodec) DecodeInto(_ seq.Seq, buf []byte) (seq.Read, int, error) {
	return c.Decode(buf)
}

// Input is one rank's share of the problem, as produced by the earlier
// pipeline stages (partitioning, candidate discovery, task redistribution).
type Input struct {
	Part  *partition.Partition
	Lens  []int32        // global read lengths (stage-2 metadata, all ranks)
	Tasks []overlap.Task // tasks assigned to this rank (owner invariant holds)
	Codec Codec
	Store seq.Store // owner-only read store holding this rank's partition
	// (nil under the phantom codec: the model executor needs no bases)
}

// localSeq returns the sequence of a read owned by this rank (nil in
// phantom mode). Going through the Store keeps the residency contract
// live: an out-of-partition id panics (or is counted) here.
func (in *Input) localSeq(id seq.ReadID) seq.Seq {
	if in.Store == nil {
		return nil
	}
	return in.Store.Get(id).Seq
}

// planSize returns the wire size to budget for read id using only the
// replicated length vector — never the read's bases, which for a remote id
// this rank must not hold. It is seq.WireSizeOf, a bound on every codec's
// encoding: exact for the phantom codec, about four times the real
// codec's on a long read. Only the owner, which holds the bases, sizes a
// payload exactly (Codec.WireSize).
func (in *Input) planSize(id seq.ReadID) int {
	return seq.WireSizeOf(int(in.Lens[id]))
}

// storeBytes is the rank's resident read footprint: the store's physical
// bytes, or the modeled partition size in phantom mode.
func (in *Input) storeBytes(rank int) int64 {
	if in.Store != nil {
		return in.Store.LocalBytes()
	}
	return in.PartitionBytes(rank)
}

// PartitionBytes returns the wire size of rank r's read partition — the
// input-residency baseline of the memory-footprint figures.
func (in *Input) PartitionBytes(r int) int64 {
	lo, hi := in.Part.Range(r)
	var n int64
	for i := lo; i < hi; i++ {
		n += int64(seq.WireSizeOf(int(in.Lens[i])))
	}
	return n
}

// Result is one rank's outcome plus driver-level counters that the
// experiment harness reads alongside rt.Metrics.
type Result struct {
	Hits              []Hit
	LocalTasks        int   // tasks with both reads local
	RemoteTasks       int   // tasks needing a fetch
	RemoteReads       int   // distinct remote reads fetched
	Supersteps        int   // BSP: exchange rounds executed (async: 0)
	ExchangeRecvBytes int64 // BSP: payload bytes received (Figure 6 series)

	// WireFetches counts remote reads actually pulled over the wire, and
	// CacheHits the fetch decisions the remote-read cache answered instead.
	// With the cache off WireFetches equals the fetch-decision count
	// (RemoteReads) and CacheHits is zero. The coherence battery pins
	// hits+fetches == decisions.
	WireFetches int
	CacheHits   int

	// unreturned: scratch buffers and batchers an asynchronous Run checked
	// out and never handed back. Tests pin it to zero.
	unreturned int
}

// validate checks the owner invariant over the rank's tasks and, when a
// store is present, that its resident range is exactly the rank's
// partition — the data-residency side of the same contract.
func (in *Input) validate(rank int) error {
	if in.Store != nil {
		plo, phi := in.Part.Range(rank)
		slo, shi := in.Store.Range()
		if slo != plo || shi != phi {
			return fmt.Errorf("core: rank %d store resident over [%d,%d), partition is [%d,%d)",
				rank, slo, shi, plo, phi)
		}
	}
	for _, t := range in.Tasks {
		if in.Part.Owner(t.A) != rank && in.Part.Owner(t.B) != rank {
			return fmt.Errorf("core: rank %d holds task (%d,%d) owning neither read", rank, t.A, t.B)
		}
	}
	return nil
}

// Run executes the exchange-and-align phase under the coordination
// strategy mode names: "bsp" (or "", the default) or "async". It is the one
// place a mode string becomes a driver.
func Run(mode string, r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	switch mode {
	case "", "bsp":
		return RunBSP(r, in, cfg)
	case "async":
		return RunAsync(r, in, cfg)
	}
	return nil, fmt.Errorf("core: unknown mode %q (want bsp or async)", mode)
}
