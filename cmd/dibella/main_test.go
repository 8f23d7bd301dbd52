package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// The fixture is `genreads -genome 8000 -coverage 6 -meanlen 1200 -error
// 0.08 -both -seed 7`; hits.golden.tsv is the hit TSV the pre-launcher
// discover→align path wrote for it, byte-identical across bsp / async /
// steal at 1 and 3 ranks, serial and distributed discovery, and
// -dist. The staged path must keep reproducing it.
var fixtureArgs = []string{"-in", "testdata/reads.fa", "-k", "15", "-coverage", "6", "-error", "0.08", "-minscore", "60"}

// dibella runs the program in-process.
func dibella(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func golden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/hits.golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serialHits is the oracle: serial discovery plus the single-threaded
// X-drop reference, in raw per-task form.
func serialHits(t *testing.T) (*seq.ReadSet, []core.Hit) {
	t.Helper()
	reads, err := seq.LoadFile("testdata/reads.fa")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := kmer.ReliableWindow(6, 0.08, 15, 0)
	idx, err := kmer.Index(reads, 15, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	tasks := overlap.Candidates(idx, 15, func(id seq.ReadID) int { return reads.Get(id).Len() })
	hits, err := core.SerialHits(reads, tasks, align.DefaultScoring(), 15, 60)
	if err != nil {
		t.Fatal(err)
	}
	return reads, hits
}

func TestHitTSVMatchesGoldenAndSerial(t *testing.T) {
	want := golden(t)
	reads, raw := serialHits(t)
	var oracle strings.Builder
	for _, h := range core.CanonicalizeHits(raw, workload.LensOf(reads)) {
		fmt.Fprintf(&oracle, "%s\t%s\t%d\n", reads.Get(h.A).Name, reads.Get(h.B).Name, h.Score)
	}
	if oracle.String() != want {
		t.Fatal("golden TSV differs from CanonicalizeHits(SerialHits(...)): fixture or oracle drifted")
	}
	// 33 of the fixture's 37 reads carry an N, so most cross the wire with
	// a run list; -mem 20000 splits the bsp exchange into 14 supersteps at
	// 3 ranks.
	for _, mode := range [][]string{{"-mode", "bsp"}, {"-mode", "bsp", "-mem", "20000"}, {"-mode", "async"}, {"-mode", "steal"}} {
		for _, procs := range []string{"1", "3"} {
			args := append(append(append([]string{}, fixtureArgs...), mode...), "-procs", procs)
			name := strings.Join(args[len(fixtureArgs):], " ")
			code, stdout, stderr := dibella(args...)
			if code != 0 {
				t.Fatalf("%s: exit %d\n%s", name, code, stderr)
			}
			if stdout != want {
				t.Errorf("%s: hit TSV differs from the golden (%d vs %d bytes)", name, len(stdout), len(want))
			}
			if !strings.Contains(stderr, "overlap kinds:") || !strings.Contains(stderr, "discover") {
				t.Errorf("%s: stderr lacks the kinds line or the per-stage table:\n%s", name, stderr)
			}
		}
	}
}

// TestAssemblyMatchesGolden: edges.golden.tsv and contigs.golden.fa are the
// reduced graph's edge TSV and the contig FASTA that the commit before the
// link-table contig stage wrote for the fixture with -fuzz 50 (seven
// contigs, three of them merging two to four reads) — byte-identical there
// across its bsp replay walker and its async RPC walker at 1 and 3 ranks.
// -mode still picks the reduce stage's fetch strategy (steal fetches as
// async does); neither it nor the rank count may show in an artifact.
func TestAssemblyMatchesGolden(t *testing.T) {
	for stage, file := range map[string]string{"reduce": "testdata/edges.golden.tsv", "contigs": "testdata/contigs.golden.fa"} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"bsp", "async", "steal"} {
			for _, procs := range []string{"1", "3"} {
				args := append(append([]string{}, fixtureArgs...), "-fuzz", "50", "-stages", stage, "-mode", mode, "-procs", procs)
				code, stdout, stderr := dibella(args...)
				if code != 0 {
					t.Fatalf("%s -mode %s -procs %s: exit %d\n%s", stage, mode, procs, code, stderr)
				}
				if stdout != string(want) {
					t.Errorf("%s -mode %s -procs %s: artifact differs from %s (%d vs %d bytes)", stage, mode, procs, file, len(stdout), len(want))
				}
			}
		}
	}
}

// TestOutFile: -out must hold the same bytes stdout would, and a write
// that cannot land (ENOSPC at flush/close) must fail the run.
func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hits.tsv")
	if code, _, stderr := dibella(append(fixtureArgs, "-procs", "2", "-out", path)...); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden(t) {
		t.Error("-out file differs from the golden")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	code, _, stderr := dibella(append(fixtureArgs, "-procs", "2", "-out", "/dev/full")...)
	if code != 1 || !strings.Contains(stderr, "-out:") {
		t.Errorf("-out /dev/full: exit %d, want 1 with an -out error\n%s", code, stderr)
	}
}

func TestPAFOneRecordPerRawHit(t *testing.T) {
	reads, raw := serialHits(t)
	code, stdout, stderr := dibella(append(fixtureArgs, "-mode", "async", "-procs", "3", "-paf")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != len(raw) {
		t.Fatalf("%d PAF records, want one per raw hit (%d)", len(lines), len(raw))
	}
	lenOf := map[string]int{}
	for _, rd := range reads.Reads {
		lenOf[rd.Name] = rd.Len()
	}
	for i, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 14 {
			t.Fatalf("record %d has %d fields, want 12 + AS + cg:\n%s", i, len(f), line)
		}
		num := func(j int) int {
			v, err := strconv.Atoi(f[j])
			if err != nil {
				t.Fatalf("record %d field %d %q is not numeric", i, j, f[j])
			}
			return v
		}
		for _, side := range [][4]int{{0, 1, 2, 3}, {5, 6, 7, 8}} {
			n, lo, hi := num(side[1]), num(side[2]), num(side[3])
			if n != lenOf[f[side[0]]] || lo < 0 || lo >= hi || hi > n {
				t.Errorf("record %d: %s len %d span [%d,%d) is malformed", i, f[side[0]], n, lo, hi)
			}
		}
		if f[4] != "+" && f[4] != "-" {
			t.Errorf("record %d: strand %q", i, f[4])
		}
		if m, al := num(9), num(10); m <= 0 || m > al {
			t.Errorf("record %d: %d matches over alignment length %d", i, m, al)
		}
		if !strings.HasPrefix(f[12], "AS:i:") || !strings.HasPrefix(f[13], "cg:Z:") || len(f[13]) == len("cg:Z:") {
			t.Errorf("record %d: tags %q %q", i, f[12], f[13])
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range [][]string{
		{},                           // -in missing
		{"-distributed"},             // removed: discovery is always the distributed stage
		{"-steal"},                   // removed: the work-stealing variant is -mode steal
		{"-mode", "async", "-steal"}, // likewise, in its old spelling
		{"-packed"},                  // removed: every read exchange packs
		{"-mode", "pull"},
		{"-coverage", "1e10"}, // above pipeline.MaxCoverage
		{"-coverage", "NaN"},
		{"-x", "-1"},
		{"-x", "1001"}, // above pipeline.MaxX
		{"-error", "1.5"},
		{"-k", "40"}, // above kmer.MaxK
		{"-procs", "0"},
		{"-stages", "polish"},
		{"-stages", "graph", "-paf"},
		{"-paf", "-dist"},
		{"-placement", "reverse"}, // needs -dist
		{"-dist", "-rank", "2", "-peers", "2", "-addr", "127.0.0.1:1"},
		{"-dist", "-rank", "0", "-peers", "2"}, // a worker needs -addr
	} {
		args := tc
		if len(tc) > 0 {
			args = append(append([]string{}, fixtureArgs...), tc...)
		}
		code, stdout, stderr := dibella(args...)
		if code != 2 || stderr == "" || stdout != "" {
			t.Errorf("%v: exit %d (want 2), stdout %d bytes, stderr %q", tc, code, len(stdout), stderr)
		}
	}
}

// TestMetricsSurviveFailedTrace: -stage-metrics is accepted with -stages
// overlap (one row per stage and rank), and a failed -trace write neither
// hides nor skips the -metrics export.
func TestMetricsSurviveFailedTrace(t *testing.T) {
	dir := t.TempDir()
	met, stage := filepath.Join(dir, "m.csv"), filepath.Join(dir, "s.csv")
	code, _, stderr := dibella(append(fixtureArgs, "-procs", "2", "-out", filepath.Join(dir, "h.tsv"),
		"-trace", filepath.Join(dir, "missing", "t.json"), "-metrics", met, "-stage-metrics", stage)...)
	if code != 1 || !strings.Contains(stderr, "-trace:") {
		t.Errorf("exit %d, want 1 naming the -trace failure\n%s", code, stderr)
	}
	for path, wantRows := range map[string]int{met: 1 + 2 + 1, stage: 1 + 2*2} { // header, ranks, footer | header, stages×ranks
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s not written after the -trace failure: %v", filepath.Base(path), err)
		}
		if got := strings.Count(string(b), "\n"); got != wantRows {
			t.Errorf("%s has %d lines, want %d", filepath.Base(path), got, wantRows)
		}
	}
	if b, _ := os.ReadFile(stage); !strings.HasPrefix(string(b), "stage,rank,") || !strings.Contains(string(b), "\nalign,1,") {
		t.Errorf("stage metrics rows are not stage-tagged:\n%s", b)
	}
}
