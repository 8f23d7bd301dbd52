package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/topo"
	"gnbody/internal/transport"
)

// hierPattern builds a deterministic, partly sparse send matrix: rank src
// sends to dst a cell-coded payload whose length varies with the pair, and
// roughly a third of the pairs send nothing — the sparsity hierarchical
// aggregation exploits (the flat plan ships a header frame even for empty
// rows; the hierarchical plan drops them).
func hierPattern(p, src int, round int) [][]byte {
	send := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		if (src+2*dst+round)%3 == 0 {
			continue // nil row
		}
		n := 1 + (src*13+dst*7+round*29)%97
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = cell(src, dst, i+round)
		}
		send[dst] = msg
	}
	return send
}

// runHierBody is the shared SPMD body: a few alltoallv rounds with
// rank-local verification, plus allreduce checks against closed forms.
func runHierBody(t *testing.T, p int) func(rt.Runtime) {
	return func(r rt.Runtime) {
		for round := 0; round < 3; round++ {
			recv := r.Alltoallv(hierPattern(p, r.Rank(), round))
			for src := 0; src < p; src++ {
				want := hierPattern(p, src, round)[r.Rank()]
				if !bytes.Equal(recv[src], want) && (len(recv[src]) != 0 || len(want) != 0) {
					t.Errorf("p=%d round=%d rank %d: payload from %d: got %d bytes, want %d",
						p, round, r.Rank(), src, len(recv[src]), len(want))
				}
			}
		}
		if got, want := r.Allreduce(int64(r.Rank()+1), rt.OpSum), int64(p*(p+1)/2); got != want {
			t.Errorf("p=%d rank %d: allreduce sum = %d, want %d", p, r.Rank(), got, want)
		}
		if got := r.Allreduce(int64(r.Rank()), rt.OpMin); got != 0 {
			t.Errorf("p=%d rank %d: allreduce min = %d, want 0", p, r.Rank(), got)
		}
		if got, want := r.Allreduce(int64(r.Rank()), rt.OpMax), int64(p-1); got != want {
			t.Errorf("p=%d rank %d: allreduce max = %d, want %d", p, r.Rank(), got, want)
		}
	}
}

// TestHierCollectivesMatchFlat drives the hierarchical plans across node
// shapes — including P not divisible by NodeSize and a single-node
// degenerate — and checks contents and reductions rank-locally.
func TestHierCollectivesMatchFlat(t *testing.T) {
	for _, tc := range []struct{ p, ns int }{
		{8, 4},  // two full nodes
		{8, 2},  // four nodes
		{7, 3},  // last node short
		{6, 6},  // one node: hier() off, flat plan, all-intra tiers
		{5, 1},  // flat
		{9, 4},  // last node is a single rank (its leader)
		{12, 3}, // three-node middle case
	} {
		t.Run(fmt.Sprintf("p%d_ns%d", tc.p, tc.ns), func(t *testing.T) {
			w, err := NewWorld(Config{P: tc.p, NodeSize: tc.ns, ProgressDeadline: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			runWorld(t, w, 30*time.Second, runHierBody(t, tc.p))
		})
	}
}

// TestHierRandomizedSweep fuzzes matrix shapes (including all-empty rows
// and large payloads) through the hierarchical plan.
func TestHierRandomizedSweep(t *testing.T) {
	const p, ns = 6, 2
	w, err := NewWorld(Config{P: p, NodeSize: ns, ProgressDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(61))
	// Shared expectation table built up front; ranks index it read-only.
	type key struct{ round, src, dst int }
	want := make(map[key][]byte)
	rounds := 6
	for round := 0; round < rounds; round++ {
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				if rng.Intn(3) == 0 {
					continue
				}
				msg := make([]byte, rng.Intn(2048))
				rng.Read(msg)
				want[key{round, src, dst}] = msg
			}
		}
	}
	runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
		for round := 0; round < rounds; round++ {
			send := make([][]byte, p)
			for dst := 0; dst < p; dst++ {
				send[dst] = want[key{round, r.Rank(), dst}]
			}
			recv := r.Alltoallv(send)
			for src := 0; src < p; src++ {
				exp := want[key{round, src, r.Rank()}]
				if !bytes.Equal(recv[src], exp) && (len(recv[src]) != 0 || len(exp) != 0) {
					t.Errorf("round %d rank %d: payload from %d corrupt (%d vs %d bytes)",
						round, r.Rank(), src, len(recv[src]), len(exp))
				}
			}
		}
	})
}

// TestHierInterBytesDrop is the tier claim: the same exchange over the
// same node grouping crosses the node boundary with strictly fewer bytes
// when aggregation is on than under the flat plan (NoAggregation), and the
// logical counters stay identical — aggregation changes the wire, not the
// application traffic.
func TestHierInterBytesDrop(t *testing.T) {
	const p, ns = 8, 4
	run := func(noAgg bool) (inter, intra, sent, msgs int64) {
		w, err := NewWorld(Config{P: p, NodeSize: ns, NoAggregation: noAgg,
			ProgressDeadline: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		runWorld(t, w, 30*time.Second, runHierBody(t, p))
		for i := 0; i < p; i++ {
			m := w.Metrics(i)
			inter += m.InterBytes
			intra += m.IntraBytes
			sent += m.BytesSent
			msgs += m.Msgs
		}
		return
	}
	aggInter, aggIntra, aggSent, aggMsgs := run(false)
	flatInter, _, flatSent, flatMsgs := run(true)
	if aggSent != flatSent || aggMsgs != flatMsgs {
		t.Errorf("logical counters drifted: agg sent=%d msgs=%d, flat sent=%d msgs=%d",
			aggSent, aggMsgs, flatSent, flatMsgs)
	}
	if aggInter >= flatInter {
		t.Errorf("aggregation did not reduce cross-node bytes: %d >= %d", aggInter, flatInter)
	}
	if aggIntra == 0 || aggInter == 0 {
		t.Errorf("tier counters empty: intra=%d inter=%d", aggIntra, aggInter)
	}
	t.Logf("cross-node bytes: flat=%d aggregated=%d (%.1f%% saved)",
		flatInter, aggInter, 100*float64(flatInter-aggInter)/float64(flatInter))
}

// TestHierOverTCP runs the hierarchical plan over real sockets: the plan
// must be transport-agnostic, and cross-node frames genuinely traverse a
// socket mesh here.
func TestHierOverTCP(t *testing.T) {
	const p, ns = 6, 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	fabric := make([]transport.Transport, p)
	ferrs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Addr: addr, Timeout: 20 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			fabric[i], ferrs[i] = transport.Rendezvous(i, p, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range ferrs {
		if err != nil {
			t.Fatalf("rendezvous rank %d: %v", i, err)
		}
	}
	w, err := NewWorldOver(fabric, Config{NodeSize: ns, ProgressDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runWorld(t, w, 60*time.Second, runHierBody(t, p))
}

// TestNewRankBadPlacement is "never silently differ" for a hand-launched
// worker: a rank built from a placement that is not a permutation must not
// route on a topology its peers do not share. Its first Run returns a sticky
// *RankError (op "placement") without running the body, and a world refuses
// the same placement up front.
func TestNewRankBadPlacement(t *testing.T) {
	for _, tc := range []struct {
		name      string
		placement []int
	}{
		{"wrong length", []int{0, 1, 2}},
		{"out of range", []int{0, 1, 2, 4}},
		{"negative", []int{0, -1, 2, 3}},
		{"duplicate slot", []int{0, 1, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NodeSize: 2, Placement: tc.placement}
			fabric := transport.NewLoopback(4)
			defer func() {
				for _, tp := range fabric {
					tp.Close()
				}
			}()
			if _, err := NewWorldOver(fabric, cfg); err == nil {
				t.Error("NewWorldOver accepted the placement")
			}
			r := NewRank(fabric[1], cfg)
			for run := 0; run < 2; run++ {
				ran := false
				err := r.Run(func(rt.Runtime) { ran = true })
				var re *RankError
				if !errors.As(err, &re) || re.Rank != 1 || re.Op != "placement" {
					t.Fatalf("run %d: error %v, want a *RankError with op placement naming rank 1", run, err)
				}
				if ran {
					t.Fatalf("run %d: body ran on a rank with no agreed topology", run)
				}
			}
			if r.Err() == nil {
				t.Error("Err() is nil on a rank born failed")
			}
		})
	}
}

// FuzzHierRecord fuzzes the relay record codec the leaders re-pack frames
// with, in its 1-id (up, down) and 2-id (cross) forms: a record built by
// appendRecord decodes to the same ids and payload with the tail intact,
// and no byte string — truncated header, truncated payload, trailing bytes
// — makes record panic, over-read or hand back bytes it was not given.
func FuzzHierRecord(f *testing.F) {
	f.Add([]byte("payload"), uint16(3), uint16(9), []byte{})
	f.Add([]byte{}, uint16(0), uint16(65535), []byte{0, 1})
	f.Add([]byte{1}, uint16(7), uint16(7), []byte{0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, payload []byte, a, b uint16, tail []byte) {
		for _, ids := range [][]int{{int(a)}, {int(a), int(b)}} {
			nIDs := len(ids)
			enc := appendRecord(nil, payload, ids...)
			if len(enc) != topo.RecordHeader(nIDs)+len(payload) {
				t.Fatalf("%d-id record of %d bytes encodes to %d", nIDs, len(payload), len(enc))
			}
			gotIDs, got, rest, err := record(append(enc, tail...), nIDs, nil)
			if err != nil {
				t.Fatalf("%d-id round trip: %v", nIDs, err)
			}
			if !reflect.DeepEqual(gotIDs, ids) || !bytes.Equal(got, payload) || !bytes.Equal(rest, tail) {
				t.Fatalf("%d-id round trip: ids %v payload %x rest %x, want %v %x %x",
					nIDs, gotIDs, got, rest, ids, payload, tail)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, _, _, err := record(enc[:cut], nIDs, nil); err == nil {
					t.Fatalf("%d-id record cut to %d of %d bytes decoded", nIDs, cut, len(enc))
				}
			}
			// Arbitrary bytes: either an error, or a payload and remainder
			// that tile the input exactly past the header.
			if _, got, rest, err := record(tail, nIDs, nil); err == nil &&
				topo.RecordHeader(nIDs)+len(got)+len(rest) != len(tail) {
				t.Fatalf("%d-id decode of %x: payload %d + rest %d bytes do not tile the input", nIDs, tail, len(got), len(rest))
			}
		}
	})
}
