package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// The asynchronous driver's RPC request protocol. Every request starts with a
// one-byte op code; the remainder is op-specific.
const (
	// reqRead asks the owner for one or more of its reads:
	// [op][4-byte read id]... — the response is the concatenated wire
	// encodings. A batch of size one is the paper's per-read pull; larger
	// batches are the §5 "more aggregation" variant. Built in
	// fetcher.flush, answered by readServer.
	reqRead = 0x01
)

// ExchangeError reports bytes from a peer that the read exchange cannot
// use: a request that is ragged, of an unknown kind or for a read its
// receiver does not own, or a payload that omits, repeats or adds to the
// reads that were asked for. The rank that detects it answers with nothing,
// keeps taking part in the run's remaining collectives so no peer hangs,
// and returns the error when its driver returns.
type ExchangeError struct {
	Rank   int // the rank that detected it
	From   int // the peer that sent the bytes; -1 for an RPC request, whose caller the runtime does not name
	Reason string
}

func (e *ExchangeError) Error() string {
	if e.From < 0 {
		return fmt.Sprintf("core: rank %d: bad request: %s", e.Rank, e.Reason)
	}
	return fmt.Sprintf("core: rank %d: bad bytes from rank %d: %s", e.Rank, e.From, e.Reason)
}

// encodeReads answers a peer's list of 4-byte read ids — all of which must
// lie in this rank's partition [lo, hi) — with the reads' concatenated wire
// encodings in dst[:0]. The owner holds the bases, so it sizes the answer
// exactly before a base is written and dst is allocated at most once. A
// list this rank cannot answer is returned as a reason, with dst emptied.
func encodeReads(dst []byte, in *Input, lo, hi int, ids []byte) ([]byte, string) {
	dst = dst[:0]
	if len(ids)%4 != 0 {
		return dst, fmt.Sprintf("ragged read request (%d id bytes)", len(ids))
	}
	size := 0
	for off := 0; off < len(ids); off += 4 {
		id := int(binary.LittleEndian.Uint32(ids[off:]))
		if id < lo || id >= hi {
			return dst, fmt.Sprintf("read %d asked of the owner of [%d,%d)", id, lo, hi)
		}
		size += in.Codec.WireSize(seq.ReadID(id))
	}
	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	for off := 0; off < len(ids); off += 4 {
		dst = in.Codec.Encode(dst, seq.ReadID(binary.LittleEndian.Uint32(ids[off:])))
	}
	return dst, ""
}

// readServer answers reqRead lookups into this rank's partition. Every
// response is built in one per-rank buffer: the runtime snapshots a
// handler's response before the handler can run again (rt.Runtime.Serve). A
// request this rank cannot answer is reported through f.fail and answered
// with nothing.
func readServer(f *fetcher) func([]byte) []byte {
	var resp []byte
	return func(req []byte) []byte {
		if len(req) == 0 || req[0] != reqRead {
			f.fail(&ExchangeError{f.r.Rank(), -1, fmt.Sprintf("unknown request % x", req[:min(len(req), 8)])})
			return nil
		}
		var bad string
		if resp, bad = encodeReads(resp, f.in, f.lo, f.hi, req[1:]); bad != "" {
			f.fail(&ExchangeError{f.r.Rank(), -1, bad})
		}
		return resp
	}
}

// readDecoder decodes received reads under Timed(CatOverhead) — unpacking is
// driver overhead like packing — through one closure built up front, so the
// per-read cost is the Timed call and not an allocation. A read whose
// header disagrees with the replicated length vector is rejected before a
// base is unpacked: the plan, the budgets and the decode buffers were all
// sized from that vector.
type readDecoder struct {
	r rt.Runtime

	dst  seq.Seq
	buf  []byte
	read seq.Read
	used int
	err  error
	fn   func()
}

func newReadDecoder(r rt.Runtime, in *Input) *readDecoder {
	d := &readDecoder{r: r}
	d.fn = func() {
		d.read, d.used, d.err = seq.Read{}, 0, nil
		id, n, err := seq.WireHeader(d.buf)
		switch {
		case err != nil:
			d.err = err
		case int(id) >= len(in.Lens):
			d.err = fmt.Errorf("read %d of %d", id, len(in.Lens))
		case n != int(in.Lens[id]):
			d.err = fmt.Errorf("read %d has %d bases, the length vector says %d", id, n, in.Lens[id])
		default:
			d.read, d.used, d.err = in.Codec.DecodeInto(d.dst, d.buf)
		}
	}
	return d
}

// decode parses the read at the front of buf into dst. The results are
// copied out before any other decode can run, so nested completion
// callbacks may share one decoder.
func (d *readDecoder) decode(dst seq.Seq, buf []byte) (seq.Read, int, error) {
	d.dst, d.buf = dst, buf
	d.r.Timed(rt.CatOverhead, d.fn)
	d.dst, d.buf = nil, nil
	return d.read, d.used, d.err
}
