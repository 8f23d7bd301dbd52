package core

import (
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/seq"
)

// TestRealExecutorWarmAllocFree pins the per-task cost of the real
// executor: on a rank's warm executor an aligned task allocates nothing —
// no closure for Timed, nothing it captures moved to the heap — and still
// reports the kernel's cells.
func TestRealExecutorWarmAllocFree(t *testing.T) {
	a := make(seq.Seq, 3000)
	for i := range a {
		a[i] = seq.Base(i * 7 % 11 % 4)
	}
	b := a.Clone()
	for i := 5; i < len(b); i += 37 {
		b[i] = (b[i] + 1) % 4
	}
	task := overlap.Task{A: 0, B: 1, Seed: overlap.Seed{PosA: 1500, PosB: 1500, K: 17}}
	exec := RealExecutor{Scoring: align.DefaultScoring(), X: 15}.WithWorkspace(align.NewWorkspace())
	r := &loopRT{}
	if _, ok := exec.Align(r, task, a, b); !ok {
		t.Fatal("warm-up task produced no result")
	}
	if r.m.SWARTasks != 1 || r.m.LaneCells == 0 {
		t.Fatalf("warm-up metrics %+v, want one row-kernel task with cells", r.m)
	}
	allocs := testing.AllocsPerRun(50, func() { exec.Align(r, task, a, b) })
	if allocs != 0 {
		t.Fatalf("warm RealExecutor.Align allocates %.1f times per task, want 0", allocs)
	}
}
