// Command benchmark is the repository's benchmark: four long-running
// workloads, each reported as end-to-end metrics (untraced) and per-layer
// metrics (traced). README.md has the definitions and how to run it.
//
//	benchmark                                  every workload, untraced, one child process each
//	benchmark -trace 1                         the same, traced
//	benchmark -workload W -seed N -seconds S -trace 0|1   one workload in this process
//	benchmark -selfcheck                       two interleaved sets of runs compared (A/A)
//
// A one-workload run prints its result as one JSON object on the last line
// of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	if childMain() {
		return
	}
	var (
		name      = flag.String("workload", "", "run this workload in-process (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "workload seed (README names 2 as the held-out seed)")
		seconds   = flag.Float64("seconds", 20, "length of the timed phase")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of runs and compare them")
		runs      = flag.Int("runs", 5, "with -selfcheck: runs per set, each pair on its own seed")
		outDir    = flag.String("out", "benchmark/out", "directory for generated inputs and span files")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	child := func(w string, seed int64) (result, error) {
		return runChild(w, seed, *seconds, *trace, *outDir)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *runs, child)
	case *name == "":
		for _, def := range workloads {
			if _, cerr := child(def.Name, *seed); cerr != nil {
				err = cerr
			}
		}
	default:
		def, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		err = runWorkload(def, &env{seed: *seed, seconds: *seconds, trace: *trace == 1,
			dir: *outDir, report: os.Stdout})
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, def := range workloads {
		if def.Name == name {
			return def, true
		}
	}
	return workloadDef{}, false
}

// runChild runs one workload in a child process of this binary, so that
// every workload starts from a fresh heap and its own resident-set
// high-water mark. The child's report passes through; its last line is
// parsed as the result.
func runChild(workload string, seed int64, seconds float64, trace int, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	if runErr != nil {
		return result{}, fmt.Errorf("%s: %w", workload, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}
