package dist

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/rt"
	"gnbody/internal/topo"
)

// Hierarchical collectives: the relay plan of DESIGN.md §13 over this rank's
// topo.Map, which says who shares a node, who leads it and when the plan is
// active at all. Alltoallv runs in three stages — members ship cross-node
// rows up to their leader, leaders exchange one frame per peer node, leaders
// deliver down — with node-internal rows on the flat pairwise schedule
// restricted to the node. The up frame is sent before the intra-node exchange
// begins, so leaders aggregate while members exchange; every stage sends
// before it waits, so the plan cannot deadlock under the polling model.
//
// Allreduce becomes two folds: members send values to their leader, the
// leader folds them in slot order into a node partial, partials gather to
// the slot-0 rank and fold in node order — rt's ops (sum/min/max on int64)
// are commutative and associative, so the result is bit-identical to the
// flat rank-order fold under any placement — and the result retraces the
// tree.
//
// Logical accounting (BytesSent/BytesRecv/Msgs) is counted at the
// collective's entry exactly as in the flat plan, so the cross-backend
// parity contract is untouched; what changes is the wire traffic, visible
// in the IntraBytes/InterBytes tiers.

// relay reports whether the hierarchical plans are active.
func (r *Rank) relay() bool { return r.tm.Relay(!r.cfg.NoAggregation) }

// appendRecord packs one payload record with the given rank-id prefix
// fields (uint16 each) and a uint32 length.
func appendRecord(dst []byte, payload []byte, ids ...int) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint16(dst, uint16(id))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// record unpacks the next record with nIDs uint16 rank fields, returning
// the ids, the payload, and the remaining buffer.
func record(buf []byte, nIDs int, ids []int) ([]int, []byte, []byte, error) {
	hdr := topo.RecordHeader(nIDs)
	if len(buf) < hdr {
		return nil, nil, nil, fmt.Errorf("short record header")
	}
	ids = ids[:0]
	for i := 0; i < nIDs; i++ {
		ids = append(ids, int(binary.BigEndian.Uint16(buf[2*i:])))
	}
	n := int(binary.BigEndian.Uint32(buf[2*nIDs:]))
	if len(buf) < hdr+n {
		return nil, nil, nil, fmt.Errorf("short record payload")
	}
	return ids, buf[hdr : hdr+n], buf[hdr+n:], nil
}

// alltoallvHier runs the three-stage exchange for one epoch, filling recv
// (the caller has already handled the self row and logical send counters).
func (r *Rank) alltoallvHier(epoch uint64, send, recv [][]byte) {
	tm := r.tm
	myNode := tm.NodeOf(r.id)
	members := tm.Members(myNode)
	n := len(members)
	leader := members[0]

	// Stage 1 (members): cross-node rows go up to the leader before the
	// intra-node exchange, so the leader aggregates while members exchange.
	if r.id != leader {
		up := make([]byte, 0, 64)
		up = append(up, msgA2AUp)
		up = binary.BigEndian.AppendUint64(up, epoch)
		for dst := 0; dst < r.p; dst++ {
			if tm.NodeOf(dst) == myNode || len(send[dst]) == 0 {
				continue
			}
			up = appendRecord(up, send[dst], dst)
		}
		r.sendFrame("alltoallv", leader, up, nil)
	}

	// Node-internal rows: the flat pairwise schedule, restricted to the
	// node's members and scheduled on slot offsets.
	idx := 0
	for members[idx] != r.id {
		idx++
	}
	var hdr [topo.FrameHeader]byte
	hdr[0] = msgA2A
	binary.BigEndian.PutUint64(hdr[1:], epoch)
	for step := 1; step < n; step++ {
		dst := members[(idx+step)%n]
		src := members[(idx-step+n)%n]
		r.sendFrame("alltoallv", dst, hdr[:], send[dst])
		k := srcKey{epoch: epoch, src: src}
		r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{src} }, func() bool {
			_, ok := r.a2aGot[k]
			return ok
		})
		recv[src] = r.a2aGot[k]
		delete(r.a2aGot, k)
		r.met.BytesRecv += int64(len(recv[src]))
	}

	if r.id != leader {
		// Stage 3 (members): everything from outside the node arrives in
		// one delivery from the leader.
		r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{leader} }, func() bool {
			_, ok := r.downGot[epoch]
			return ok
		})
		buf := r.downGot[epoch]
		delete(r.downGot, epoch)
		ids := make([]int, 0, 1)
		for len(buf) > 0 {
			var payload []byte
			var err error
			ids, payload, buf, err = record(buf, 1, ids)
			if err != nil {
				r.raise("alltoallv", fmt.Errorf("bad down record from rank %d: %v", leader, err))
			}
			recv[ids[0]] = payload
			r.met.BytesRecv += int64(len(payload))
		}
		return
	}

	// Leader: collect the members' up frames.
	ups := make(map[int][]byte, n-1)
	for _, m := range members[1:] {
		k := srcKey{epoch: epoch, src: m}
		r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{m} }, func() bool {
			_, ok := r.upGot[k]
			return ok
		})
		ups[m] = r.upGot[k]
		delete(r.upGot, k)
	}

	// Stage 2: pairwise exchange among leaders, one aggregated frame per
	// peer node. down[q] accumulates the records member q will get.
	down := make([][]byte, r.p)
	ids := make([]int, 0, 2)
	nNodes := tm.Nodes()
	for step := 1; step < nNodes; step++ {
		dstNode := (myNode + step) % nNodes
		srcLeader := tm.Leader((myNode - step + nNodes) % nNodes)
		x := make([]byte, 0, 256)
		x = append(x, msgA2AX)
		x = binary.BigEndian.AppendUint64(x, epoch)
		// The leader's own rows for the peer node...
		for _, dst := range tm.Members(dstNode) {
			if len(send[dst]) > 0 {
				x = appendRecord(x, send[dst], r.id, dst)
			}
		}
		// ...plus every member's, re-packed from the up frames.
		for _, m := range members[1:] {
			buf := ups[m]
			for len(buf) > 0 {
				var payload []byte
				var err error
				ids, payload, buf, err = record(buf, 1, ids)
				if err != nil {
					r.raise("alltoallv", fmt.Errorf("bad up record from rank %d: %v", m, err))
				}
				if dst := ids[0]; tm.NodeOf(dst) == dstNode {
					x = appendRecord(x, payload, m, dst)
				}
			}
		}
		r.sendFrame("alltoallv", tm.Leader(dstNode), x, nil)
		k := srcKey{epoch: epoch, src: srcLeader}
		r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{srcLeader} }, func() bool {
			_, ok := r.xGot[k]
			return ok
		})
		buf := r.xGot[k]
		delete(r.xGot, k)
		for len(buf) > 0 {
			var payload []byte
			var err error
			ids, payload, buf, err = record(buf, 2, ids)
			if err != nil {
				r.raise("alltoallv", fmt.Errorf("bad cross record from rank %d: %v", srcLeader, err))
			}
			src, dst := ids[0], ids[1]
			if dst == r.id {
				recv[src] = payload
				r.met.BytesRecv += int64(len(payload))
			} else {
				down[dst] = appendRecord(down[dst], payload, src)
			}
		}
	}

	// Stage 3 (leader): deliver. Always sent, even empty — the frame is
	// also the member's completion signal.
	hdr[0] = msgA2ADown
	for _, m := range members[1:] {
		r.sendFrame("alltoallv", m, hdr[:], down[m])
	}
}

// allreduceHier folds v up the node tree and broadcasts the result down.
// Folds run in slot order (members) then node order (partials at the
// slot-0 rank); rt's ops are commutative and associative, so the value is
// bit-identical to the flat rank-order fold under any placement.
func (r *Rank) allreduceHier(epoch uint64, v int64, op rt.Op) int64 {
	tm := r.tm
	members := tm.Members(tm.NodeOf(r.id))
	leader := members[0]
	root := tm.Leader(0) // the global fold point

	if r.id != leader {
		r.sendFrame("allreduce", leader, redFrame(msgRedVal, epoch, v), nil)
		r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{leader} }, func() bool {
			_, ok := r.redResult[epoch]
			return ok
		})
		acc := r.redResult[epoch]
		delete(r.redResult, epoch)
		return acc
	}

	// fold combines the value rank src sends into acc.
	acc := v
	fold := func(src int) {
		k := srcKey{epoch: epoch, src: src}
		r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{src} }, func() bool {
			_, ok := r.redGot[k]
			return ok
		})
		acc = op.Combine(acc, r.redGot[k])
		delete(r.redGot, k)
	}
	for _, m := range members[1:] { // node partial, in slot order
		fold(m)
	}

	if r.id == root {
		// Global fold: node partials in node order — the same value the
		// flat fold computes, by commutativity and associativity.
		for k := 1; k < tm.Nodes(); k++ {
			fold(tm.Leader(k))
		}
		for k := 1; k < tm.Nodes(); k++ {
			r.sendFrame("allreduce", tm.Leader(k), redFrame(msgRedResult, epoch, acc), nil)
		}
	} else {
		r.sendFrame("allreduce", root, redFrame(msgRedVal, epoch, acc), nil)
		r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{root} }, func() bool {
			_, ok := r.redResult[epoch]
			return ok
		})
		acc = r.redResult[epoch]
		delete(r.redResult, epoch)
	}

	for _, m := range members[1:] {
		r.sendFrame("allreduce", m, redFrame(msgRedResult, epoch, acc), nil)
	}
	return acc
}
