package partition

import (
	"cmp"
	"slices"

	"gnbody/internal/overlap"
)

// AssignTasks distributes tasks to ranks under the owner invariant: every
// task lands on Owner(task.A) or Owner(task.B) — DiBELLA's stage-2
// redistribution. A task whose reads share an owner has no choice. Any
// other task makes its rank fetch the read it does not own, so its side
// decides the exchange, and AssignTasks picks sides to keep the distinct
// (rank, remote read) fetches few while the largest per-rank task count
// stays within one task of the least the owner invariant allows.
//
// The fetches form a graph: vertex (r, x) is "rank r fetches read x", and
// a cross-rank task (a, b) is an edge between (Owner(a), b) and
// (Owner(b), a) — running it on a side uses that side's vertex. The fewest
// fetches is a minimum vertex cover, which the greedy cover approximates:
// while some vertex has one uncovered edge it takes that edge's other end
// (always optimal), otherwise the vertex of highest uncovered degree. So a
// hub read is fetched once by each partner rank instead of the hub's owner
// fetching every partner. The balance repair then brings every rank down
// to the least feasible maximum: first the moves that add no fetch, then
// the moves a max-flow over the rank graph routes, fewest new fetches first
// on every rank pair. Last, moves that add no fetch lower the largest
// planned inbound bytes of any rank, allowing one task over that maximum:
// fewer fetches in all can still concentrate on one rank.
//
// The result is a pure function of (tasks, pt), computed on flat arrays;
// each rank's tasks keep their input order.
func AssignTasks(tasks []overlap.Task, pt *Partition) [][]overlap.Task {
	a := newAssigner(tasks, pt)
	a.cover()
	a.level(a.balance() + 1)
	out := make([][]overlap.Task, pt.P)
	for r := range out {
		out[r] = make([]overlap.Task, 0, a.load[r])
	}
	for i, r := range a.rank {
		out[r] = append(out[r], tasks[i])
	}
	return out
}

// assigner holds the fetch graph of one AssignTasks call. Cross-rank task j
// is tasks[cross[j]]; its endpoint 2j is vertex (Owner(A), B), the vertex
// it uses when it runs on Owner(A), and endpoint 2j+1 is (Owner(B), A).
// side[j] picks the endpoint in use, -1 before the cover reaches it.
type assigner struct {
	p     int
	rank  []int32 // per task: the rank it runs on
	load  []int   // per rank: tasks assigned
	cross []int32
	side  []int8
	vert  []int32 // per endpoint: its vertex
	vrank []int32 // per vertex: the fetching rank
	vread []int32 // per vertex: the fetched read
	wire  []int32 // per read: planned wire size
	ends  []int32 // endpoints sorted by vertex; vertex v's are ends[vpos[v]:vpos[v+1]]
	vpos  []int32
	uses  []int32 // per vertex: assigned tasks that use it
	group []int32 // per vertex: scratch of moveCheapest, zero between calls
	fixed int     // the most tasks any rank owns both reads of
}

func newAssigner(tasks []overlap.Task, pt *Partition) *assigner {
	own := make([]int32, pt.starts[pt.P])
	for r := 0; r < pt.P; r++ {
		for i := pt.starts[r]; i < pt.starts[r+1]; i++ {
			own[i] = int32(r)
		}
	}
	a := &assigner{p: pt.P, wire: pt.wire, rank: make([]int32, len(tasks)), load: make([]int, pt.P)}
	for i, t := range tasks {
		ra, rb := own[t.A], own[t.B]
		a.rank[i] = ra
		if ra == rb {
			a.load[ra]++
			a.fixed = max(a.fixed, a.load[ra])
		} else {
			a.cross = append(a.cross, int32(i))
		}
	}
	// Endpoint e fetches read x(e) to rank r(e). Two stable counting sorts,
	// by rank then by read, order the endpoints by vertex (read, rank).
	m2 := 2 * len(a.cross)
	xOf := func(e int32) int32 {
		t := tasks[a.cross[e>>1]]
		if e&1 == 0 {
			return int32(t.B)
		}
		return int32(t.A)
	}
	rOf := func(e int32) int32 {
		t := tasks[a.cross[e>>1]]
		if e&1 == 0 {
			return own[t.A]
		}
		return own[t.B]
	}
	byRank, _ := countingSort(iota(m2), pt.P, rOf)
	a.ends, _ = countingSort(byRank, len(own), xOf)

	a.vert = make([]int32, m2)
	for i, e := range a.ends {
		if i == 0 || xOf(e) != xOf(a.ends[i-1]) || rOf(e) != rOf(a.ends[i-1]) {
			a.vpos = append(a.vpos, int32(i))
			a.vrank = append(a.vrank, rOf(e))
			a.vread = append(a.vread, xOf(e))
		}
		a.vert[e] = int32(len(a.vrank) - 1)
	}
	a.vpos = append(a.vpos, int32(m2))
	a.side = make([]int8, len(a.cross))
	a.uses = make([]int32, len(a.vrank))
	a.group = make([]int32, len(a.vrank))
	return a
}

// countingSort stably orders src by key into a new slice. Key k's
// elements land at [at[k], at[k+1]).
func countingSort(src []int32, keys int, key func(int32) int32) (dst, at []int32) {
	at = make([]int32, keys+1)
	for _, e := range src {
		at[key(e)+1]++
	}
	for k := 1; k <= keys; k++ {
		at[k] += at[k-1]
	}
	next := slices.Clone(at)
	dst = make([]int32, len(src))
	for _, e := range src {
		k := key(e)
		dst[next[k]] = e
		next[k]++
	}
	return dst, at
}

// iota returns 0, 1, …, n-1.
func iota(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// endpoints returns vertex v's endpoints.
func (a *assigner) endpoints(v int32) []int32 { return a.ends[a.vpos[v]:a.vpos[v+1]] }

// using returns the vertex cross task j uses on its current side.
func (a *assigner) using(j int) int32 { return a.vert[2*j+int(a.side[j])] }

// other returns the vertex cross task j would use on its other side.
func (a *assigner) other(j int) int32 { return a.vert[2*j+1-int(a.side[j])] }

// place puts cross task j on the side whose endpoint is e.
func (a *assigner) place(j int, e int32) {
	a.side[j] = int8(e & 1)
	v := a.using(j)
	a.uses[v]++
	a.load[a.vrank[v]]++
	a.rank[a.cross[j]] = a.vrank[v]
}

// cover runs the greedy vertex cover over a bucket queue keyed by
// uncovered degree.
func (a *assigner) cover() {
	nv := len(a.vrank)
	deg := make([]int32, nv)
	next, prev := make([]int32, nv), make([]int32, nv)
	top := int32(0)
	for v := range deg {
		deg[v] = a.vpos[v+1] - a.vpos[v]
		top = max(top, deg[v])
	}
	head := make([]int32, max(top, 1)+1)
	for d := range head {
		head[d] = -1
	}
	push := func(v int32) {
		d := deg[v]
		next[v], prev[v] = head[d], -1
		if head[d] >= 0 {
			prev[head[d]] = v
		}
		head[d] = v
	}
	unlink := func(v int32) {
		if prev[v] >= 0 {
			next[prev[v]] = next[v]
		} else {
			head[deg[v]] = next[v]
		}
		if next[v] >= 0 {
			prev[next[v]] = prev[v]
		}
	}
	for v := int32(nv - 1); v >= 0; v-- {
		push(v) // so each bucket lists its vertices in id order
	}
	for i := range a.side {
		a.side[i] = -1
	}
	for {
		var take int32 = -1
		if u := head[1]; u >= 0 {
			for _, e := range a.endpoints(u) {
				if a.side[e>>1] < 0 {
					take = a.vert[e^1]
					break
				}
			}
		} else {
			for top > 1 && head[top] < 0 {
				top--
			}
			if top <= 1 {
				break
			}
			take = head[top]
		}
		unlink(take)
		for _, e := range a.endpoints(take) {
			j := int(e >> 1)
			if a.side[j] >= 0 {
				continue
			}
			a.place(j, e)
			u := a.vert[e^1]
			unlink(u)
			if deg[u]--; deg[u] > 0 {
				push(u)
			}
		}
		deg[take] = 0
	}
}

// cost is how many fetches moving cross task j to its other side adds:
// one if the other side's vertex is not yet fetched, less one if j is the
// last task using its current vertex.
func (a *assigner) cost(j int) int {
	c := 0
	if a.uses[a.other(j)] == 0 {
		c++
	}
	if a.uses[a.using(j)] == 1 {
		c--
	}
	return c
}

// move puts cross task j on its other side.
func (a *assigner) move(j int) {
	v := a.using(j)
	a.uses[v]--
	a.load[a.vrank[v]]--
	a.place(j, 2*int32(j)+1-int32(a.side[j]))
}

// balance repairs the cover's task counts down to the least feasible
// maximum: free moves from ranks above it to ranks below it until none is
// left, then a max-flow over the rank graph routes the remaining surplus
// and every rank pair moves its share, fewest new fetches first.
func (a *assigner) balance() (target int) {
	cls := a.classes()
	target = a.leastMax(cls)
	for moved := true; moved; {
		moved = false
		for j := range a.cross {
			if a.load[a.vrank[a.using(j)]] > target && a.load[a.vrank[a.other(j)]] < target && a.cost(j) <= 0 {
				a.move(j)
				moved = true
			}
		}
	}
	flows, _ := a.route(cls, target)
	var cand []int32
	for c, f := range flows {
		if f == 0 {
			continue
		}
		// f > 0 moves tasks from the class's lower rank to its higher one.
		from := cls.lo[c]
		if f < 0 {
			from, f = cls.hi[c], -f
		}
		cand = cand[:0]
		for _, j := range cls.tasks[cls.pos[c]:cls.pos[c+1]] {
			if a.vrank[a.using(int(j))] == from {
				cand = append(cand, j)
			}
		}
		a.moveCheapest(cand, f)
	}
	return target
}

// level lowers the largest planned inbound bytes of any rank with moves
// that add no fetch and keep every rank within target: while the busiest
// rank runs a task that is the only user of one of its fetches, and the
// task's other owner has room for it and stays below the busiest rank's
// new inbound, the task with the largest freed read moves there.
func (a *assigner) level(target int) {
	inb := make([]int64, a.p)
	for v, u := range a.uses {
		if u > 0 {
			inb[a.vrank[v]] += int64(a.wire[a.vread[v]])
		}
	}
	verts, at := countingSort(iota(len(a.vrank)), a.p, func(v int32) int32 { return a.vrank[v] })
	for range a.cross {
		r := 0
		for s, b := range inb {
			if b > inb[r] {
				r = s
			}
		}
		best, freed := -1, int64(0)
		for _, v := range verts[at[r]:at[r+1]] {
			if a.uses[v] != 1 || int64(a.wire[a.vread[v]]) <= freed {
				continue
			}
			j := -1
			for _, e := range a.endpoints(v) {
				if int32(a.side[e>>1]) == e&1 {
					j = int(e >> 1)
					break
				}
			}
			w := a.other(j)
			s := a.vrank[w]
			var add int64
			if a.uses[w] == 0 {
				add = int64(a.wire[a.vread[w]])
			}
			if a.load[s] < target && inb[s]+add < inb[r]-int64(a.wire[a.vread[v]]) {
				best, freed = j, int64(a.wire[a.vread[v]])
			}
		}
		if best < 0 {
			return
		}
		w := a.other(best)
		if a.uses[w] == 0 {
			inb[a.vrank[w]] += int64(a.wire[a.vread[w]])
		}
		inb[r] -= freed
		a.move(best)
	}
}

// moveCheapest moves n of the candidate tasks (all on one rank and of one
// class) to their other side. A task whose destination vertex is already
// fetched goes first; after those, the destination vertices shared by the
// most candidates open first, so each new fetch carries as many tasks as
// it can.
func (a *assigner) moveCheapest(cand []int32, n int) {
	for _, j := range cand {
		a.group[a.other(int(j))]++
	}
	unfetched := func(v int32) int {
		if a.uses[v] == 0 {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(cand, func(x, y int32) int {
		vx, vy := a.other(int(x)), a.other(int(y))
		return cmp.Or(cmp.Compare(unfetched(vx), unfetched(vy)), cmp.Compare(a.group[vy], a.group[vx]), cmp.Compare(vx, vy))
	})
	for _, j := range cand {
		a.group[a.other(int(j))] = 0
	}
	for _, j := range cand[:n] {
		a.move(int(j))
	}
}

// rankClasses groups the cross tasks by their unordered owner pair: class
// c holds the tasks between ranks lo[c] < hi[c], tasks[pos[c]:pos[c+1]].
type rankClasses struct {
	lo, hi []int32
	pos    []int32
	tasks  []int32
}

func (a *assigner) classes() rankClasses {
	pair := func(j int32) (lo, hi int32) {
		r, s := a.vrank[a.vert[2*j]], a.vrank[a.vert[2*j+1]]
		return min(r, s), max(r, s)
	}
	byHi, _ := countingSort(iota(len(a.cross)), a.p, func(j int32) int32 { _, hi := pair(j); return hi })
	var cls rankClasses
	cls.tasks, _ = countingSort(byHi, a.p, func(j int32) int32 { lo, _ := pair(j); return lo })
	for i, j := range cls.tasks {
		lo, hi := pair(j)
		if n := len(cls.lo); n == 0 || cls.lo[n-1] != lo || cls.hi[n-1] != hi {
			cls.lo, cls.hi = append(cls.lo, lo), append(cls.hi, hi)
			cls.pos = append(cls.pos, int32(i))
		}
	}
	cls.pos = append(cls.pos, int32(len(cls.tasks)))
	return cls
}

// leastMax is the least maximum per-rank task count any assignment under
// the owner invariant reaches. It starts from the mean and raises the
// target to the bound each infeasible max-flow's min cut proves: the ranks
// still reachable from the surplus hold tasks that cannot leave them.
func (a *assigner) leastMax(cls rankClasses) int {
	total := 0
	for _, l := range a.load {
		total += l
	}
	target := max(a.fixed, (total+a.p-1)/a.p)
	for {
		flows, bound := a.route(cls, target)
		if flows != nil {
			return target
		}
		target = bound
	}
}

// route returns, per class, the net number of tasks a max-flow moves from
// the class's lower rank to its higher one (negative: the other way) so
// that no rank holds more than target tasks. When no moves can, it
// returns nil and a larger target no assignment beats.
func (a *assigner) route(cls rankClasses, target int) (flows []int, bound int) {
	s, t := int32(a.p), int32(a.p+1)
	g := newFlowNet(a.p + 2)
	var surplus int32
	for r, l := range a.load {
		if l > target {
			g.edge(s, int32(r), int32(l-target), 0)
			surplus += int32(l - target)
		} else if l < target {
			g.edge(int32(r), t, int32(target-l), 0)
		}
	}
	onLo, edges := make([]int32, len(cls.lo)), make([]int32, len(cls.lo))
	for c := range cls.lo {
		for _, j := range cls.tasks[cls.pos[c]:cls.pos[c+1]] {
			if a.vrank[a.using(int(j))] == cls.lo[c] {
				onLo[c]++
			}
		}
		edges[c] = g.edge(cls.lo[c], cls.hi[c], onLo[c], cls.pos[c+1]-cls.pos[c]-onLo[c])
	}
	routed := g.maxFlow(s, t)
	final := slices.Clone(a.load)
	flows = make([]int, len(cls.lo))
	for c, e := range edges {
		flows[c] = int(onLo[c] - g.cap[e])
		final[cls.lo[c]] -= flows[c]
		final[cls.hi[c]] += flows[c]
	}
	if routed == surplus {
		return flows, target
	}
	// The ranks the last search still reached from the source took every
	// task they could shed and hold more than target each.
	held, n := 0, 0
	for r, l := range final {
		if g.level[r] >= 0 {
			held += l
			n++
		}
	}
	return nil, (held + n - 1) / n
}

// flowNet is a residual network for Dinic's max-flow. Edge e's reverse is
// e^1; cap holds residual capacities.
type flowNet struct {
	head, level, iter []int32
	next, to, cap     []int32
}

func newFlowNet(n int) *flowNet {
	g := &flowNet{head: make([]int32, n), level: make([]int32, n), iter: make([]int32, n)}
	for i := range g.head {
		g.head[i] = -1
	}
	return g
}

// edge adds u→v with capacity c and v→u with capacity rc, and returns the
// forward edge.
func (g *flowNet) edge(u, v, c, rc int32) int32 {
	e := int32(len(g.to))
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, c, rc)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u], g.head[v] = e, e+1
	return e
}

func (g *flowNet) maxFlow(s, t int32) int32 {
	var total int32
	queue := make([]int32, 0, len(g.head))
	for {
		for i := range g.level {
			g.level[i] = -1
		}
		g.level[s] = 0
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for e := g.head[u]; e >= 0; e = g.next[e] {
				if v := g.to[e]; g.cap[e] > 0 && g.level[v] < 0 {
					g.level[v] = g.level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if g.level[t] < 0 {
			return total
		}
		copy(g.iter, g.head)
		for {
			f := g.augment(s, t, 1<<30)
			if f == 0 {
				break
			}
			total += f
		}
	}
}

// augment pushes up to f units along level-increasing residual edges.
func (g *flowNet) augment(u, t, f int32) int32 {
	if u == t {
		return f
	}
	for ; g.iter[u] >= 0; g.iter[u] = g.next[g.iter[u]] {
		e := g.iter[u]
		v := g.to[e]
		if g.cap[e] <= 0 || g.level[v] != g.level[u]+1 {
			continue
		}
		if d := g.augment(v, t, min(f, g.cap[e])); d > 0 {
			g.cap[e] -= d
			g.cap[e^1] += d
			return d
		}
	}
	return 0
}
