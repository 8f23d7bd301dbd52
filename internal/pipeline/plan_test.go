package pipeline

import (
	"testing"

	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// TestSpecWindow pins the window-resolution semantics the batch tool's
// flags established: explicit Hi wins; otherwise the BELLA model derives
// the window, with an explicit Lo still overriding the model's lower bound.
func TestSpecWindow(t *testing.T) {
	if lo, hi := (Spec{K: 17, Lo: 3, Hi: 44}).Window(); lo != 3 || hi != 44 {
		t.Errorf("explicit window: got [%d,%d], want [3,44]", lo, hi)
	}
	mlo, mhi := kmer.ReliableWindow(30, 0.15, 17, 0)
	if lo, hi := (Spec{K: 17, Coverage: 30, ErrRate: 0.15}).Window(); lo != mlo || hi != mhi {
		t.Errorf("model window: got [%d,%d], want [%d,%d]", lo, hi, mlo, mhi)
	}
	if lo, hi := (Spec{K: 17, Lo: 5, Coverage: 30, ErrRate: 0.15}).Window(); lo != 5 || hi != mhi {
		t.Errorf("model window with explicit lo: got [%d,%d], want [5,%d]", lo, hi, mhi)
	}
}

func TestNewPlanValidation(t *testing.T) {
	lens := []int32{100, 200, 300}
	if _, err := NewPlan(lens, 2, Spec{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewPlan(lens, 2, Spec{K: kmer.MaxK + 1}); err == nil {
		t.Error("k over MaxK accepted")
	}
	pl, err := NewPlan(lens, 2, Spec{K: 17, Lo: 2, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Part == nil || pl.K != 17 || pl.Lo != 2 || pl.Hi != 50 {
		t.Errorf("plan fields: %+v", pl)
	}
}

// TestPlanRunMatchesRun: a plan from NewPlan produces exactly the task set
// of a hand-built one with the same parameters — including when the same
// Plan is executed twice on the same world (the resident-service usage
// pattern).
func TestPlanRunMatchesRun(t *testing.T) {
	reads := pipelineReads(t, 4)
	lens := workload.LensOf(reads)
	const p, k, lo, hi = 3, 15, 2, 60

	pl, err := NewPlan(lens, p, Spec{K: k, Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []overlap.Task {
		outs := make([]*Output, p)
		errs := make([]error, p)
		world.Run(func(r rt.Runtime) {
			lo, hi := pl.Part.Range(r.Rank())
			outs[r.Rank()], errs[r.Rank()] = pl.Run(r, seq.Scope(reads, lo, hi, lens))
		})
		var tasks []overlap.Task
		for rk := range outs {
			if errs[rk] != nil {
				t.Fatalf("rank %d: %v", rk, errs[rk])
			}
			tasks = append(tasks, outs[rk].Tasks...)
		}
		overlap.SortTasks(tasks)
		return tasks
	}
	first := collect()
	if len(first) == 0 {
		t.Fatal("plan found no tasks")
	}
	// Reference: a Plan literal with the same partition and window.
	outs, _ := runDistributed(t, reads, p, k, lo, hi)
	var want []overlap.Task
	for _, out := range outs {
		want = append(want, out.Tasks...)
	}
	overlap.SortTasks(want)
	if len(first) != len(want) {
		t.Fatalf("plan path found %d tasks, direct Run %d", len(first), len(want))
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("task %d: plan %+v, direct %+v", i, first[i], want[i])
		}
	}
	// Re-entrancy: a second execution on the SAME world must reproduce the
	// first exactly — no state may leak between runs.
	second := collect()
	if len(second) != len(first) {
		t.Fatalf("re-run found %d tasks, first run %d", len(second), len(first))
	}
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("re-run task %d differs: %+v vs %+v", i, second[i], first[i])
		}
	}
}
