package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// bound of every end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the A/A noise check: two sets of runs of this same binary,
// interleaved A,B,A,B,… so both see the same machine weather, pair i of
// both sets on seed+i. Per workload and end-to-end metric it prints both
// set medians, how much worse B's is than A's, each set's spread (the
// interquartile distance over the median) and pass or fail: the medians
// must agree within the metric's bound, and the spread must stay within it
// too (set-up time is exempt from the spread rule).
func selfCheck(seed int64, runs int, child func(workload string, seed int64) (result, error)) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-selfcheck runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for _, def := range workloads {
		for i := 0; i < runs; i++ {
			for s := range sets {
				res, err := child(def.Name, seed+int64(i))
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					k := key{def.Name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, def := range workloads {
		for _, m := range bf.EndToEnd {
			k := key{def.Name, m.Name}
			a, b := sets[0][k], sets[1][k]
			worse := (median(b) - median(a)) / median(a)
			ok := worse <= m.Bound && (m.Name == "setup_s" || (spread(a) <= m.Bound && spread(b) <= m.Bound))
			verdict := "pass"
			if !ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				def.Name, m.Name, median(a), median(b), 100*worse, 100*spread(a), 100*spread(b), 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d of %d comparisons outside their bound", failed, len(workloads)*len(bf.EndToEnd))
	}
	return nil
}
