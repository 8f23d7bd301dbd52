package dist

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/rt"
)

// Hierarchical collective plans (DESIGN.md §13, §17). With NodeSize > 1 the
// ranks form nodes of NodeSize slots; under the identity placement a node is
// a block of consecutive ids, and Config.Placement permutes which rank holds
// which slot (topology-aware placement packs heavy-traffic pairs into one
// node). The rank holding a node's first slot is its leader. The
// communication-avoiding premise is the usual one for
// generalized N-body exchanges: links inside a node are cheap (loopback,
// shared memory), links between nodes are the scaling limit, so traffic is
// combined node-locally before it crosses the boundary once.
//
// Alltoallv becomes three stages:
//
//  1. up    — every member ships its cross-node rows to its leader, packed
//             as {dst, len, payload} records (empty rows are dropped —
//             unlike the flat pairwise exchange, no frame crosses any link
//             for a rank pair with nothing to say);
//  2. cross — leaders run a pairwise exchange among themselves, each frame
//             carrying the whole node's traffic for the peer node as
//             {src, dst, len, payload} records;
//  3. down  — each leader delivers {src, len, payload} records to its
//             members. Node-internal rows never leave the node: they move
//             by the same pairwise schedule the flat algorithm uses,
//             restricted to node members.
//
// The up frame is sent before the intra-node exchange begins, so leaders
// aggregate while members exchange; every stage sends before it waits, so
// the plan cannot deadlock under the polling model.
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

// hier reports whether the hierarchical plans are active: more than one
// rank per node, more than one node, and aggregation not disabled.
func (r *Rank) hier() bool {
	return r.ns > 1 && r.ns < r.p && !r.cfg.NoAggregation
}

// nodeSlots returns the slot interval [base, end) of the node owning rank
// q (the last node may be short when P is not divisible by NodeSize). The
// rank on slot s is r.inv[s].
func (r *Rank) nodeSlots(q int) (int, int) {
	base := (r.slot[q] / r.ns) * r.ns
	end := base + r.ns
	if end > r.p {
		end = r.p
	}
	return base, end
}

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
	hdr := 2*nIDs + 4
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
	baseSlot, endSlot := r.nodeSlots(r.id)
	n := endSlot - baseSlot
	leader := r.inv[baseSlot]
	myNode := r.nodeOf(r.id)
	nNodes := (r.p + r.ns - 1) / r.ns

	// Stage 1 (members): cross-node rows go up to the leader before the
	// intra-node exchange, so the leader aggregates while members exchange.
	if r.id != leader {
		up := make([]byte, 0, 64)
		up = append(up, msgA2AUp)
		up = binary.BigEndian.AppendUint64(up, epoch)
		for dst := 0; dst < r.p; dst++ {
			if r.nodeOf(dst) == myNode || len(send[dst]) == 0 {
				continue
			}
			up = appendRecord(up, send[dst], dst)
		}
		r.sendFrame("alltoallv", leader, up, nil)
	}

	// Node-internal rows: the flat pairwise schedule, restricted to the
	// node's members and scheduled on slot offsets.
	idx := r.slot[r.id] - baseSlot
	var hdr [9]byte
	hdr[0] = msgA2A
	binary.BigEndian.PutUint64(hdr[1:], epoch)
	for step := 1; step < n; step++ {
		dst := r.inv[baseSlot+(idx+step)%n]
		src := r.inv[baseSlot+(idx-step+n)%n]
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
	for s := baseSlot + 1; s < endSlot; s++ {
		m := r.inv[s]
		k := srcKey{epoch: epoch, src: m}
		r.waitLoop(rt.CatComm, "alltoallv", func() []int { return []int{m} }, func() bool {
			_, ok := r.upGot[k]
			return ok
		})
		ups[m] = r.upGot[k]
		delete(r.upGot, k)
	}

	// Stage 2: pairwise exchange among leaders, one aggregated frame per
	// peer node. down[i] accumulates the records member base+i will get.
	down := make([][]byte, n)
	ids := make([]int, 0, 2)
	for step := 1; step < nNodes; step++ {
		dstNode := (myNode + step) % nNodes
		srcNode := (myNode - step + nNodes) % nNodes
		dstLo, dstHi := dstNode*r.ns, (dstNode+1)*r.ns
		if dstHi > r.p {
			dstHi = r.p
		}
		x := make([]byte, 0, 256)
		x = append(x, msgA2AX)
		x = binary.BigEndian.AppendUint64(x, epoch)
		// The leader's own rows for the peer node...
		for s := dstLo; s < dstHi; s++ {
			if dst := r.inv[s]; len(send[dst]) > 0 {
				x = appendRecord(x, send[dst], r.id, dst)
			}
		}
		// ...plus every member's, re-packed from the up frames.
		for s := baseSlot + 1; s < endSlot; s++ {
			m := r.inv[s]
			buf := ups[m]
			for len(buf) > 0 {
				var payload []byte
				var err error
				ids, payload, buf, err = record(buf, 1, ids)
				if err != nil {
					r.raise("alltoallv", fmt.Errorf("bad up record from rank %d: %v", m, err))
				}
				if dst := ids[0]; r.nodeOf(dst) == dstNode {
					x = appendRecord(x, payload, m, dst)
				}
			}
		}
		srcLeader := r.inv[srcNode*r.ns]
		r.sendFrame("alltoallv", r.inv[dstNode*r.ns], x, nil)
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
				di := r.slot[dst] - baseSlot
				down[di] = appendRecord(down[di], payload, src)
			}
		}
	}

	// Stage 3 (leader): deliver. Always sent, even empty — the frame is
	// also the member's completion signal.
	hdr[0] = msgA2ADown
	for s := baseSlot + 1; s < endSlot; s++ {
		r.sendFrame("alltoallv", r.inv[s], hdr[:], down[s-baseSlot])
	}
}

// allreduceHier folds v up the node tree and broadcasts the result down.
// Folds run in slot order (members) then node order (partials at the
// slot-0 rank); rt's ops are commutative and associative, so the value is
// bit-identical to the flat rank-order fold under any placement.
func (r *Rank) allreduceHier(epoch uint64, v int64, op rt.Op) int64 {
	baseSlot, endSlot := r.nodeSlots(r.id)
	leader := r.inv[baseSlot]
	root := r.inv[0] // leader of node 0 — the global fold point

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

	// Node partial: fold the members in slot order.
	acc := v
	for s := baseSlot + 1; s < endSlot; s++ {
		src := r.inv[s]
		k := srcKey{epoch: epoch, src: src}
		r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{src} }, func() bool {
			_, ok := r.redGot[k]
			return ok
		})
		acc = op.Combine(acc, r.redGot[k])
		delete(r.redGot, k)
	}

	if r.id == root {
		// Global fold: node partials in node order — the same value the
		// flat fold computes, by commutativity and associativity.
		for bs := r.ns; bs < r.p; bs += r.ns {
			nl := r.inv[bs]
			k := srcKey{epoch: epoch, src: nl}
			r.waitLoop(rt.CatSync, "allreduce", func() []int { return []int{nl} }, func() bool {
				_, ok := r.redGot[k]
				return ok
			})
			acc = op.Combine(acc, r.redGot[k])
			delete(r.redGot, k)
		}
		for bs := r.ns; bs < r.p; bs += r.ns {
			r.sendFrame("allreduce", r.inv[bs], redFrame(msgRedResult, epoch, acc), nil)
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

	for s := baseSlot + 1; s < endSlot; s++ {
		r.sendFrame("allreduce", r.inv[s], redFrame(msgRedResult, epoch, acc), nil)
	}
	return acc
}
