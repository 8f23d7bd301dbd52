// Topology-aware placement (DESIGN.md §17). The task assignment fixes who
// must fetch which remote reads; what remains free is which ranks share a
// physical node. TrafficMatrix prices the planned fetches into a rank→rank
// byte matrix — the same planned wire sizes the exchange planners and the
// read cache budget against — and PlaceByTraffic packs the heaviest pairs
// into the same NodeSize group, so their bytes are reclassified from the
// inter-node tier to the cheap intra-node tier without moving a single task
// (the owner invariant and every result byte are untouched).
package partition

import (
	"sort"

	"gnbody/internal/overlap"
	"gnbody/internal/seq"
	"gnbody/internal/topo"
)

// PairTraffic is one directed rank→rank traffic edge: Bytes of planned wire
// payload that rank Dst will pull from rank Src.
type PairTraffic = topo.Traffic

// TrafficMatrix builds the sparse rank→rank traffic matrix implied by a
// task assignment: for every rank, each *distinct* remote read referenced
// by its tasks costs one planned-wire-size transfer from the read's owner
// — exactly the aggregation the BSP/async drivers already perform (one
// fetch per distinct remote read per rank, hub reads counted once per
// consumer rank). Edges are returned in deterministic (Src, Dst) order.
func TrafficMatrix(byRank [][]overlap.Task, pt *Partition, lens []int32) []PairTraffic {
	p := pt.P
	acc := make(map[int64]int64)
	seen := make(map[seq.ReadID]struct{})
	for r, tasks := range byRank {
		clear(seen)
		note := func(id seq.ReadID) {
			owner := pt.Owner(id)
			if owner == r {
				return
			}
			if _, dup := seen[id]; dup {
				return
			}
			seen[id] = struct{}{}
			acc[int64(owner)*int64(p)+int64(r)] += int64(seq.WireSizeOf(int(lens[id])))
		}
		for _, t := range tasks {
			note(t.A)
			note(t.B)
		}
	}
	out := make([]PairTraffic, 0, len(acc))
	for key, b := range acc {
		out = append(out, PairTraffic{Src: int(key / int64(p)), Dst: int(key % int64(p)), Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// refineSwaps is the rank-count bound under which PlaceByTraffic runs its
// swap-refinement passes; above it (deep sweep regimes) the greedy seeding
// stands alone, keeping placement O(pairs·log + p·nodes).
const refineSwaps = 4096

// aff is one undirected rank-pair affinity: bytes(a→b) + bytes(b→a), a < b.
type aff struct {
	a, b  int
	bytes int64
}

// refinePlacement runs bounded Kernighan–Lin-style swap passes over a
// greedy node assignment: any swap of two ranks on different nodes that
// strictly lowers cross-node affinity is taken, scanning rank pairs in
// index order until a full pass finds none (or the pass cap trips). The
// greedy seeding is order-sensitive — a pair whose node filled up before
// its cluster-mates arrived strands them on other nodes — and the swap
// pass repairs exactly that without disturbing already-good groups.
func refinePlacement(affs []aff, nodeOf []int, p, nNodes int) {
	// toNode[r][k]: rank r's total affinity to the current members of node k.
	toNode := make([][]int64, p)
	for r := range toNode {
		toNode[r] = make([]int64, nNodes)
	}
	type nb struct {
		other int
		bytes int64
	}
	adj := make([][]nb, p)
	pairKey := make(map[int64]int64, len(affs))
	for _, e := range affs {
		toNode[e.a][nodeOf[e.b]] += e.bytes
		toNode[e.b][nodeOf[e.a]] += e.bytes
		adj[e.a] = append(adj[e.a], nb{e.b, e.bytes})
		adj[e.b] = append(adj[e.b], nb{e.a, e.bytes})
		pairKey[int64(e.a)*int64(p)+int64(e.b)] = e.bytes
	}
	between := func(a, b int) int64 {
		if a > b {
			a, b = b, a
		}
		return pairKey[int64(a)*int64(p)+int64(b)]
	}
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				na, nbk := nodeOf[a], nodeOf[b]
				if na == nbk {
					continue
				}
				// Swapping a and b moves a's off-node affinity target from
				// na to nbk and vice versa; their mutual affinity stays
				// cross-node either way, but toNode counts it on both
				// sides, hence the 2× correction.
				delta := toNode[a][nbk] + toNode[b][na] -
					toNode[a][na] - toNode[b][nbk] - 2*between(a, b)
				if delta <= 0 {
					continue
				}
				improved = true
				for _, e := range adj[a] {
					toNode[e.other][na] -= e.bytes
					toNode[e.other][nbk] += e.bytes
				}
				for _, e := range adj[b] {
					toNode[e.other][nbk] -= e.bytes
					toNode[e.other][na] += e.bytes
				}
				nodeOf[a], nodeOf[b] = nbk, na
			}
		}
		if !improved {
			return
		}
	}
}

// PlaceByTraffic computes a rank→slot placement permutation that greedily
// co-locates heavy-traffic rank pairs in the same NodeSize group. Node k
// consists of the ranks placed on slots [k*nodeSize, (k+1)*nodeSize); the
// returned permutation is what dist.Config.Placement and sim.Config.Placement
// consume. Direction is irrelevant to tier classification, so the matrix is
// symmetrized before packing. Deterministic: pairs are taken in descending
// byte order (ties by rank indices), fresh pairs seed the emptiest node,
// later pairs join their partner's node while it has room, and (for rank
// counts up to refineSwaps) bounded swap-refinement passes then trade ranks
// between nodes while any swap strictly lowers cross-node bytes. Each
// node's members occupy its slots in ascending rank order — so an empty or
// uniform matrix degrades to the identity permutation.
func PlaceByTraffic(pairs []PairTraffic, p, nodeSize int) []int {
	ident := make([]int, p)
	for i := range ident {
		ident[i] = i
	}
	if nodeSize <= 1 || nodeSize >= p {
		return ident // one rank per node, or everything on one node: placement is moot
	}
	// Symmetrize: affinity(a, b) = bytes(a→b) + bytes(b→a), a < b.
	sym := make(map[int64]int64)
	for _, e := range pairs {
		a, b := e.Src, e.Dst
		if a == b || a < 0 || b < 0 || a >= p || b >= p {
			continue
		}
		if a > b {
			a, b = b, a
		}
		sym[int64(a)*int64(p)+int64(b)] += e.Bytes
	}
	affs := make([]aff, 0, len(sym))
	for key, by := range sym {
		affs = append(affs, aff{a: int(key / int64(p)), b: int(key % int64(p)), bytes: by})
	}
	sort.Slice(affs, func(i, j int) bool {
		if affs[i].bytes != affs[j].bytes {
			return affs[i].bytes > affs[j].bytes
		}
		if affs[i].a != affs[j].a {
			return affs[i].a < affs[j].a
		}
		return affs[i].b < affs[j].b
	})

	// Under the identity map a node's members are its slots: that is where
	// the node count, each node's capacity (the tail node holds the
	// remainder) and, at the end, the slots handed out come from. p > 2
	// here and nil is always a valid placement, so New cannot fail.
	grid, _ := topo.New(p, nodeSize, nil)
	nNodes := grid.Nodes()
	free := make([]int, nNodes)
	for k := range free {
		free[k] = len(grid.Members(k))
	}
	nodeOf := make([]int, p)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	place := func(r, k int) { nodeOf[r] = k; free[k]-- }
	for _, e := range affs {
		na, nb := nodeOf[e.a], nodeOf[e.b]
		switch {
		case na < 0 && nb < 0:
			// Seed the emptiest node (ties → lowest index): fresh heavy
			// pairs spread across nodes instead of piling unrelated pairs
			// into one group, leaving room for each pair's cluster-mates.
			best := -1
			for k := 0; k < nNodes; k++ {
				if free[k] >= 2 && (best < 0 || free[k] > free[best]) {
					best = k
				}
			}
			if best >= 0 {
				place(e.a, best)
				place(e.b, best)
			}
		case na >= 0 && nb < 0:
			if free[na] > 0 {
				place(e.b, na)
			}
		case na < 0 && nb >= 0:
			if free[nb] > 0 {
				place(e.a, nb)
			}
		}
	}
	// Leftovers (isolated or crowded-out ranks) fill remaining slots in
	// index order, which keeps the no-traffic case at identity.
	k := 0
	for r := 0; r < p; r++ {
		if nodeOf[r] >= 0 {
			continue
		}
		for free[k] == 0 {
			k++
		}
		place(r, k)
	}

	if p <= refineSwaps {
		refinePlacement(affs, nodeOf, p, nNodes)
	}
	// Emit slots: each node's members ascending on its consecutive slots.
	slot := ident // reuse; overwritten below for every rank
	next := make([]int, nNodes)
	for r := 0; r < p; r++ {
		k := nodeOf[r]
		slot[r] = grid.Members(k)[next[k]]
		next[k]++
	}
	return slot
}

// TrafficSplit prices a traffic matrix under a placement (nil = identity):
// the total bytes that stay within a NodeSize group versus those that cross
// groups. It is the planning-time analogue of the IntraBytes/InterBytes
// runtime counters — payload only, no frame or record headers — and lets
// callers score candidate placements without running anything. The rank
// count is len(slot), or with the identity placement one past the highest
// rank the matrix names. slot must be a permutation, as PlaceByTraffic's
// results are; any other is a caller bug and panics.
func TrafficSplit(pairs []PairTraffic, slot []int, nodeSize int) (intra, inter int64) {
	p := max(len(slot), 1)
	if slot == nil {
		for _, e := range pairs {
			p = max(p, e.Src+1, e.Dst+1)
		}
	}
	tm, err := topo.New(p, nodeSize, slot)
	if err != nil {
		panic("partition: TrafficSplit: " + err.Error())
	}
	for _, e := range pairs {
		if tm.SameNode(e.Src, e.Dst) {
			intra += e.Bytes
		} else {
			inter += e.Bytes
		}
	}
	return
}
