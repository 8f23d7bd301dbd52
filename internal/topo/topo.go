// Package topo is the one model of the two-tier machine: which rank sits on
// which node, who relays for a node, and what an alltoallv frame weighs on
// the wire. The dist runtime routes by it (measured bytes), the sim engine
// prices by it (modelled bytes and time), and partition.TrafficSplit plans
// by it, so the three classify a byte the same way by construction. It
// imports nothing.
//
// Ranks are placed on node *slots*: node k owns slots [k*nodeSize,
// (k+1)*nodeSize), the last node is short when the rank count is not
// divisible, and the rank holding a node's first slot is its leader. A
// placement is a rank→slot permutation (nil = identity, rank q on slot q);
// it regroups ranks into nodes and never changes what they exchange.
//
// Two alltoallv plans run over a Map (DESIGN.md §4):
//
//   - flat: every rank sends every other rank one frame, empty or not;
//   - relay: rows inside a node move flat among its members, members ship
//     their cross-node rows up to their leader as {dst,len,payload} records,
//     leaders exchange one frame per peer node of {src,dst,len,payload}
//     records, and each leader hands every member one down frame of
//     {src,len,payload} records. Empty rows produce no record; every frame
//     is sent even when it carries none (it is also the completion signal).
package topo

import "fmt"

// Wire overheads of the alltoallv frames dist's encoder writes.
const (
	// FrameHeader is the kind byte plus the 8-byte epoch that open every
	// alltoallv frame, flat or relayed.
	FrameHeader = 9

	// MaxRelayRanks bounds the relay plan: record headers carry ranks as
	// uint16.
	MaxRelayRanks = 1<<16 - 1
)

// RecordHeader is the size of a relay record's header: ids rank fields of
// two bytes (one on the up and down legs, two between leaders) and a
// four-byte payload length.
func RecordHeader(ids int) int { return 2*ids + 4 }

// Traffic is one directed cell of a rank→rank traffic matrix: Bytes of
// alltoallv payload that Src sends Dst.
type Traffic struct {
	Src, Dst int
	Bytes    int64
}

// Map is an immutable placement of p ranks on nodes of nodeSize slots.
type Map struct {
	p, ns     int
	slot, inv []int // rank→slot and slot→rank
}

// New validates placement (nil, or a permutation of 0..p-1) and builds the
// map. nodeSize below 1 means every rank is its own node; above p it means
// one node holds everyone.
func New(p, nodeSize int, placement []int) (*Map, error) {
	if p <= 0 {
		return nil, fmt.Errorf("topo: %d ranks", p)
	}
	if placement != nil && len(placement) != p {
		return nil, fmt.Errorf("topo: placement has %d entries, want %d", len(placement), p)
	}
	m := &Map{p: p, ns: min(max(nodeSize, 1), p), slot: make([]int, p), inv: make([]int, p)}
	for s := range m.inv {
		m.inv[s] = -1
	}
	for q := 0; q < p; q++ {
		s := q
		if placement != nil {
			s = placement[q]
		}
		if s < 0 || s >= p {
			return nil, fmt.Errorf("topo: placement[%d]=%d out of range [0,%d)", q, s, p)
		}
		if m.inv[s] >= 0 {
			return nil, fmt.Errorf("topo: placement is not a permutation: slot %d assigned twice", s)
		}
		m.slot[q], m.inv[s] = s, q
	}
	return m, nil
}

// Ranks returns the rank count.
func (m *Map) Ranks() int { return m.p }

// NodeSize returns the normalised slots per node, in [1, Ranks()].
func (m *Map) NodeSize() int { return m.ns }

// Nodes returns the node count (a short tail node included).
func (m *Map) Nodes() int { return (m.p + m.ns - 1) / m.ns }

// NodeOf returns the node rank q sits on.
func (m *Map) NodeOf(q int) int { return m.slot[q] / m.ns }

// SameNode reports whether ranks a and b share a node.
func (m *Map) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// Members returns node k's ranks in slot order, leader first. The slice
// aliases the map and must not be modified.
func (m *Map) Members(k int) []int { return m.inv[k*m.ns : min((k+1)*m.ns, m.p)] }

// Leader returns node k's relay rank: the one on its first slot.
func (m *Map) Leader(k int) int { return m.inv[k*m.ns] }

// Relay reports whether the relay plan runs when a caller wants it: only
// with more than one rank per node, more than one node, and ranks that fit
// the record headers. Otherwise the flat plan runs.
func (m *Map) Relay(want bool) bool {
	return want && m.ns > 1 && m.ns < m.p && m.p <= MaxRelayRanks
}

// Routed is what one alltoallv of a traffic matrix puts on each tier.
type Routed struct {
	// Relay says which plan ran: leader relay, or flat.
	Relay bool

	// Intra and Inter are the wire bytes each rank sends on links inside
	// its node and across nodes, frame and record headers included —
	// exactly what dist's send path counts for the same exchange.
	Intra, Inter []int64

	// InterOverhead is the share of ΣInter that is headers, not payload.
	InterOverhead int64

	// Payload loads per rank and tier, for pricing: what each rank
	// injects and absorbs. Under relay a member's cross-node rows load
	// the intra tier twice (up at the source node, down at the
	// destination) and the inter tier at the two leaders only. A self
	// cell loads its rank's intra tier and no wire.
	IntraSend, IntraRecv, InterSend, InterRecv []int64

	// InterPayload is the payload crossing node boundaries in total.
	InterPayload int64
}

// Route sends one alltoallv of cells over the map, by the relay plan when
// Relay(relay) holds and the flat plan otherwise. Cells must have distinct
// (Src, Dst); a cell of zero bytes is an empty row.
func (m *Map) Route(cells []Traffic, relay bool) (Routed, error) {
	relay = m.Relay(relay)
	p := m.p
	r := Routed{
		Relay: relay,
		Intra: make([]int64, p), Inter: make([]int64, p),
		IntraSend: make([]int64, p), IntraRecv: make([]int64, p),
		InterSend: make([]int64, p), InterRecv: make([]int64, p),
	}
	// Frames that go out whatever the matrix holds.
	for k := 0; k < m.Nodes(); k++ {
		mem := m.Members(k)
		local := int64(len(mem)-1) * FrameHeader
		for _, q := range mem {
			switch {
			case !relay:
				r.Intra[q] = local
				r.Inter[q] = int64(p-len(mem)) * FrameHeader
			case q != mem[0]:
				r.Intra[q] = local + FrameHeader // plus the up frame
			default:
				r.Intra[q] = 2 * local // plus a down frame per member
				r.Inter[q] = int64(m.Nodes()-1) * FrameHeader
			}
		}
	}
	for _, q := range r.Inter {
		r.InterOverhead += q
	}
	up, cross := int64(RecordHeader(1)), int64(RecordHeader(2))
	for _, c := range cells {
		if c.Src < 0 || c.Src >= p || c.Dst < 0 || c.Dst >= p {
			return Routed{}, fmt.Errorf("topo: cell %d->%d out of range [0,%d)", c.Src, c.Dst, p)
		}
		n := c.Bytes
		if n == 0 {
			continue // an empty row: no payload, and under relay no record
		}
		if m.SameNode(c.Src, c.Dst) {
			r.IntraSend[c.Src] += n
			r.IntraRecv[c.Dst] += n
			if c.Src != c.Dst {
				r.Intra[c.Src] += n
			}
			continue
		}
		r.InterPayload += n
		if !relay {
			r.InterSend[c.Src] += n
			r.InterRecv[c.Dst] += n
			r.Inter[c.Src] += n
			continue
		}
		from, to := m.Leader(m.NodeOf(c.Src)), m.Leader(m.NodeOf(c.Dst))
		if c.Src != from { // up leg
			r.IntraSend[c.Src] += n
			r.IntraRecv[from] += n
			r.Intra[c.Src] += up + n
		}
		r.InterSend[from] += n
		r.InterRecv[to] += n
		r.Inter[from] += cross + n
		r.InterOverhead += cross
		if c.Dst != to { // down leg
			r.IntraSend[to] += n
			r.IntraRecv[c.Dst] += n
			r.Intra[to] += up + n
		}
	}
	return r, nil
}
