package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"gnbody/internal/seq"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// serve workload starts its load generator as a child of itself.
func TestMain(m *testing.M) {
	if childMain() {
		return
	}
	os.Exit(m.Run())
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - got) / 100; got > 50 && beyond < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves %.1f samples beyond", c.n, got, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
	if q1, med, q3 = quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %g %g %g", q1, med, q3)
	}
}

func TestPoissonScheduleIsPureFunctionOfSeed(t *testing.T) {
	due1, due2 := poissonSchedule(7, 300, 12), poissonSchedule(7, 300, 12)
	if !reflect.DeepEqual(due1, due2) {
		t.Fatal("same seed gave different schedules")
	}
	due3 := poissonSchedule(8, 300, 12)
	if reflect.DeepEqual(due1, due3) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(due1); i++ {
		if due1[i] <= due1[i-1] {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
	if mean := due1[len(due1)-1] / 300; mean < 0.8/12 || mean > 1.25/12 {
		t.Errorf("mean gap %g s, want about %g", mean, 1.0/12)
	}
	if a, b := cyclePicks(7, 50, 20), cyclePicks(7, 50, 20); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different picks")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 2, Start: 10, End: 25},
		{ID: 6, Parent: 1, Start: 95, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (50 + 10 + 5), 2: 15, 3: 30, 4: 10, 5: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestNamesAndCountsFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s does not fit the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name, "")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name, m.Unit)
	}

	// BENCHMARK.json lists the same names and units, in the same order.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) || len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the code %d/%d/%d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), the code has %q", i, w.Name, len(w.Why), workloads[i].Name)
		}
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, the code has %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %d: %+v, the code has %+v", i, m, perLayer[i])
		}
	}
}

func TestChecksumDetectsFlippedBase(t *testing.T) {
	rng := stream(3, 0)
	a, b := make(seq.Seq, 5000), make(seq.Seq, 7000)
	for i := range a {
		a[i] = seq.Base(rng.Intn(4))
	}
	for i := range b {
		b[i] = seq.Base(rng.Intn(4))
	}
	want := checksumScore(a, b)
	if want < 1 {
		t.Fatalf("score %d below the drivers' MinScore of 1", want)
	}
	for _, s := range []seq.Seq{a, b} {
		for _, pos := range []int{0, 1, len(s) / 2, len(s) - 1} {
			old := s[pos]
			for d := seq.Base(1); d < 4; d++ {
				s[pos] = (old + d) % 4
				if checksumScore(a, b) == want {
					t.Errorf("flipping position %d from %d to %d left the score unchanged", pos, old, s[pos])
				}
			}
			s[pos] = old
		}
	}
	if checksumScore(b, a) == want {
		t.Error("swapping the reads left the score unchanged")
	}
}

// TestSmoke runs all four workloads end to end at toy size: untraced for
// the end-to-end metrics, traced for the per-layer ones.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{seed: 1, seconds: 0.2, trace: trace, short: true, dir: t.TempDir(), report: io.Discard}
			if testing.Verbose() {
				e.report = os.Stdout
			}
			if err := runWorkload(def, e); err != nil {
				t.Fatalf("%s (trace %v): %v", def.Name, trace, err)
			}
			res := e.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", def.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", def.Name, name, m.Value)
					}
				}
			} else if res.Metrics["trace.overhead_frac"].Value == 0 {
				t.Errorf("%s: no tracing overhead reported", def.Name)
			}
		}
	}
}
