package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaling runs the program in-process.
func scaling(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-experiment", "fig99"}, `unknown experiment "fig99"`},
		{"bad nodes", []string{"-experiment", "table1", "-nodes", "2,x"}, `bad -nodes entry "x"`},
		{"disttransport", []string{"-disttransport", "tcp"}, "flag provided but not defined: -disttransport"},
		{"stages", []string{"-stages", "reduce"}, "flag provided but not defined: -stages"},
		{"distranks", []string{"-distranks", "2"}, "flag provided but not defined: -distranks"},
		{"servejobs", []string{"-servejobs", "2"}, "flag provided but not defined: -servejobs"},
		{"asm-genome", []string{"-asm-genome", "9000"}, "flag provided but not defined: -asm-genome"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := scaling(tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 2 naming %q", code, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("a usage error ran something: %q", stdout)
			}
		})
	}
}

// -trace needs a simulated run; table1 has none, so the run fails after
// printing its table.
func TestTraceWithoutSimulatedRun(t *testing.T) {
	code, stdout, stderr := scaling("-experiment", "table1", "-scale30", "64", "-scale100", "512",
		"-scaleccs", "2048", "-trace", filepath.Join(t.TempDir(), "t.json"))
	if code != 1 || !strings.Contains(stderr, "produced no simulated runs") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the missing run", code, stderr)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("table1 did not print before failing: %q", stdout)
	}
}

func TestUnwritableCSVDir(t *testing.T) {
	code, _, stderr := scaling("-experiment", "table1", "-scale30", "64", "-scale100", "512",
		"-scaleccs", "2048", "-csv", "/dev/full/x")
	if code != 1 || !strings.Contains(stderr, "table1") {
		t.Errorf("exit %d, stderr %q; want exit 1 naming the experiment", code, stderr)
	}
}

// Every ablation table reaches -csv, in print order.
func TestAblationsExportEveryTable(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := scaling("-experiment", "ablations", "-scale100", "512", "-scaleccs", "2048",
		"-rpn", "2", "-nodes", "2", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("got %d CSV files, want 4: %v", len(names), names)
	}
	for i, want := range []string{"cap,", "budget,", "workload,", "fetch-batch,"} {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ablations-%d.csv", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), want) {
			t.Errorf("table %d starts %q, want headers %q", i+1, strings.SplitN(string(b), "\n", 2)[0], want)
		}
	}
}
