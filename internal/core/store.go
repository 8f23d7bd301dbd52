package core

import (
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

// splitTask returns the remote read of t for a rank owning [lo, hi), or
// ok=false when both reads are local. For a task whose reads are both
// remote the owner invariant is violated upstream; validate() catches that
// case.
func splitTask(t overlap.Task, lo, hi int) (remote seq.ReadID, ok bool) {
	aLocal := lo <= int(t.A) && int(t.A) < hi
	bLocal := lo <= int(t.B) && int(t.B) < hi
	switch {
	case aLocal && bLocal:
		return 0, false
	case aLocal:
		return t.B, true
	default:
		return t.A, true
	}
}

// remoteKeys lists the remote tasks of the rank owning [lo, hi) as remote
// read<<32 | task index, sorted: grouped by remote read, in task order
// within a group. nLocal counts the local-local tasks and groups the
// remote reads, so both stores size every slice exactly.
func remoteKeys(in *Input, lo, hi int) (keys []uint64, nLocal, groups int) {
	keys = make([]uint64, 0, len(in.Tasks))
	for i, t := range in.Tasks {
		if rid, ok := splitTask(t, lo, hi); ok {
			keys = append(keys, uint64(rid)<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i == 0 || keys[i-1]>>32 != k>>32 {
			groups++
		}
	}
	return keys, len(in.Tasks) - len(keys), groups
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
	lo, hi := in.Part.Range(rank)
	keys, nLocal, groups := remoteKeys(in, lo, hi)
	st := &flatStore{local: make([]overlap.Task, 0, nLocal),
		remote: make([]overlap.Task, len(keys)), groups: make([]flatGroup, 0, groups)}
	for _, t := range in.Tasks {
		if _, remote := splitTask(t, lo, hi); !remote {
			st.local = append(st.local, t)
		}
	}
	for i, k := range keys {
		st.remote[i] = in.Tasks[uint32(k)]
		if rid := seq.ReadID(k >> 32); i == 0 || st.groups[len(st.groups)-1].read != rid {
			st.groups = append(st.groups, flatGroup{read: rid, start: int32(i), end: int32(i + 1)})
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
	lo, hi := in.Part.Range(rank)
	keys, nLocal, groups := remoteKeys(in, lo, hi)
	st := &ptrStore{local: make([]*overlap.Task, 0, nLocal),
		byRemote: make(map[seq.ReadID][]*overlap.Task, groups), order: make([]seq.ReadID, 0, groups)}
	for i := range in.Tasks {
		if _, remote := splitTask(in.Tasks[i], lo, hi); !remote {
			st.local = append(st.local, &in.Tasks[i])
		}
	}
	ptrs := make([]*overlap.Task, len(keys))
	start := 0
	for i, k := range keys {
		ptrs[i] = &in.Tasks[uint32(k)]
		if i+1 == len(keys) || keys[i+1]>>32 != k>>32 {
			rid := seq.ReadID(k >> 32)
			st.order = append(st.order, rid)
			st.byRemote[rid] = ptrs[start : i+1 : i+1]
			start = i + 1
		}
	}
	return st
}
