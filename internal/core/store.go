package core

import (
	"cmp"
	"slices"

	"gnbody/internal/overlap"
	"gnbody/internal/seq"
)

// Task stores. The paper attributes a visible overhead difference between
// the codes to local data-structure choices (§4.6, Figure 13): the
// bulk-synchronous code traverses flat arrays (better locality); the
// asynchronous code uses pointer-based standard-library structures (more
// readable, slower). Both stores are implemented faithfully so the real
// back-end reproduces the difference and the ablation bench can swap them.

// splitTask returns the remote read of t for this rank, or ok=false when
// both reads are local. For a task whose reads are both remote the owner
// invariant is violated upstream; validate() catches that case.
func splitTask(t overlap.Task, in *Input, rank int) (remote seq.ReadID, ok bool) {
	aLocal := in.Part.Owner(t.A) == rank
	bLocal := in.Part.Owner(t.B) == rank
	switch {
	case aLocal && bLocal:
		return 0, false
	case aLocal:
		return t.B, true
	default:
		return t.A, true
	}
}

// flatGroup indexes the tasks waiting on one remote read inside flatStore.
type flatGroup struct {
	read       seq.ReadID
	start, end int32
}

// flatStore is the BSP task store: local tasks and remote tasks in flat
// arrays, remote tasks sorted and grouped by remote read.
type flatStore struct {
	local  []overlap.Task
	remote []overlap.Task // sorted by remote read
	groups []flatGroup
}

func buildFlatStore(in *Input, rank int) *flatStore {
	st := &flatStore{}
	type keyed struct {
		rid seq.ReadID
		t   overlap.Task
	}
	var rem []keyed
	for _, t := range in.Tasks {
		if rid, ok := splitTask(t, in, rank); ok {
			rem = append(rem, keyed{rid, t})
		} else {
			st.local = append(st.local, t)
		}
	}
	slices.SortStableFunc(rem, func(a, b keyed) int { return cmp.Compare(a.rid, b.rid) })
	st.remote = make([]overlap.Task, len(rem))
	for i, kt := range rem {
		st.remote[i] = kt.t
		if i == 0 || rem[i-1].rid != kt.rid {
			st.groups = append(st.groups, flatGroup{read: kt.rid, start: int32(i), end: int32(i + 1)})
		} else {
			st.groups[len(st.groups)-1].end = int32(i + 1)
		}
	}
	return st
}

// tasksOf returns the task slice for group g.
func (st *flatStore) tasksOf(g flatGroup) []overlap.Task {
	return st.remote[g.start:g.end]
}

// ptrStore is the async task store: pointer-based structures keyed by
// remote read (map + per-read slices of task pointers).
type ptrStore struct {
	local    []*overlap.Task
	byRemote map[seq.ReadID][]*overlap.Task
	order    []seq.ReadID // deterministic issue order
}

func buildPtrStore(in *Input, rank int) *ptrStore {
	st := &ptrStore{byRemote: make(map[seq.ReadID][]*overlap.Task)}
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if rid, ok := splitTask(*t, in, rank); ok {
			if _, seen := st.byRemote[rid]; !seen {
				st.order = append(st.order, rid)
			}
			st.byRemote[rid] = append(st.byRemote[rid], t)
		} else {
			st.local = append(st.local, t)
		}
	}
	slices.Sort(st.order)
	return st
}
