package expt

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"strings"
	"testing"

	"gnbody/internal/rt"
	"gnbody/internal/sim"
	"gnbody/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden.txt")

// quick sizes every experiment down to seconds.
func quick(nodes ...int) Params {
	return Params{
		ScaleEColi30x:  64,
		ScaleEColi100x: 512,
		ScaleHumanCCS:  2048,
		RanksPerNode:   2,
		Nodes:          nodes,
		Seed:           1,
	}
}

// byMode keeps the rows of one mode, in order.
func byMode(rows []*Row, m Mode) []*Row {
	var out []*Row
	for _, r := range rows {
		if r.Mode == m {
			out = append(out, r)
		}
	}
	return out
}

// cells reads an experiment's only table back through its CSV rendering:
// one map per row, keyed by header.
func cells(t *testing.T, res Result) []map[string]string {
	t.Helper()
	if len(res.Tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(res.Tables))
	}
	var buf bytes.Buffer
	if err := res.Tables[0].RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, h := range recs[0] {
			row[h] = rec[i]
		}
		out = append(out, row)
	}
	return out
}

// TestExperimentsMatchGolden renders every deterministic experiment (all
// but the wall-clock intranode, dist and serve) through the registry at
// quick sizes and compares the bytes with what cmd/scaling printed for
// them at -scale30 64 -scale100 512 -scaleccs 2048 -rpn 2 -nodes 2,8, the
// "[... completed in ...]" lines stripped. Regenerate with make golden.
func TestExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment")
	}
	var got bytes.Buffer
	for _, e := range Experiments {
		switch e.ID {
		case "intranode", "dist", "serve":
			continue
		}
		res, err := e.Run(quick(2, 8))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		res.Render(&got)
		got.WriteString("\n")
	}
	const path = "testdata/quick.golden.txt"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, res)
	if len(rows) != len(workload.Presets) {
		t.Fatalf("got %d workloads", len(rows))
	}
	for _, r := range rows {
		if r["tasks"] == "0" {
			t.Errorf("workload %s empty", r["dataset"])
		}
	}
}

func TestRunSimValidation(t *testing.T) {
	w, err := workload.Synthesize(workload.EColi30x, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSim(SimSpec{Workload: w, Machine: sim.CoriKNL(), Nodes: 0, Mode: BSP}); err == nil {
		t.Error("nodes=0 accepted")
	}
}

func TestRunSimDeterministic(t *testing.T) {
	w, err := workload.Synthesize(workload.EColi30x, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := SimSpec{Workload: w, Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: 2, Mode: Async, Seed: 3}
	a, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Cat != b.Cat || a.MaxMem != b.MaxMem {
		t.Errorf("identical specs diverged: %+v vs %+v", a, b)
	}
}

// The headline Figure 8 shapes at test scale: BSP's visible communication
// share grows with node count while async's stays bounded, and BSP runs a
// single superstep throughout (the E. coli 100x regime).
func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(quick(1, 8, 64))
	if err != nil {
		t.Fatal(err)
	}
	bsp := byMode(res.Rows, BSP)
	if len(bsp) != 3 {
		t.Fatalf("got %d BSP rows", len(bsp))
	}
	if bsp[0].CommShare() >= bsp[2].CommShare() {
		t.Errorf("BSP comm share did not grow: %.3f at 1 node vs %.3f at 64",
			bsp[0].CommShare(), bsp[2].CommShare())
	}
	for _, r := range bsp {
		if r.Supersteps != 1 {
			t.Errorf("E. coli 100x regime must be single-superstep; %d nodes ran %d", r.Nodes, r.Supersteps)
		}
	}
	// Strong scaling: runtime decreases with node count for both modes.
	for _, mode := range []Mode{BSP, Async} {
		rows := byMode(res.Rows, mode)
		for i := 1; i < len(rows); i++ {
			if rows[i].Runtime >= rows[i-1].Runtime {
				t.Errorf("%s: no speedup from %d to %d nodes", mode, rows[i-1].Nodes, rows[i].Nodes)
			}
		}
	}
}

// Figure 9/11 regime: with paper-equivalent budgets the CCS exchange
// exceeds per-rank memory at small node counts (multi-round) and fits at
// larger ones, while async's footprint stays below BSP's.
func TestFig9MemoryRegime(t *testing.T) {
	p := quick(8, 64)
	p.ScaleHumanCCS = 512
	p.RanksPerNode = 4
	res, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	bsp, async := byMode(res.Rows, BSP), byMode(res.Rows, Async)
	small, large := bsp[0], bsp[1]
	if small.Supersteps < 2 {
		t.Errorf("8-node CCS ran %d supersteps, want multi-round", small.Supersteps)
	}
	if large.Supersteps != 1 {
		t.Errorf("64-node CCS ran %d supersteps, want 1", large.Supersteps)
	}
	if a := async[0]; a.MaxMem >= small.MaxMem {
		t.Errorf("async footprint %d not below BSP %d at 8 nodes", a.MaxMem, small.MaxMem)
	}
	// §4.4: async is more efficient in the memory-limited regime.
	if async[0].Runtime >= small.Runtime {
		t.Errorf("async (%v) not faster than multi-round BSP (%v)", async[0].Runtime, small.Runtime)
	}
}

func TestFig5ImbalanceGrowsWithScale(t *testing.T) {
	res, err := Fig5(quick(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if rows[0].AlignTimes.Imbalance() >= rows[1].AlignTimes.Imbalance() {
		t.Errorf("imbalance did not grow with scale: %.2f -> %.2f",
			rows[0].AlignTimes.Imbalance(), rows[1].AlignTimes.Imbalance())
	}
	for _, r := range rows {
		if r.AlignTimes.Max <= 0 {
			t.Error("no alignment time recorded")
		}
	}
}

func TestFig7LatencyScalesDown(t *testing.T) {
	res, err := Fig7(quick(8, 64))
	if err != nil {
		t.Fatal(err)
	}
	a := byMode(res.Rows, Async)
	if a[1].Cat[rt.CatComm] >= a[0].Cat[rt.CatComm] {
		t.Errorf("async comm-only latency did not scale down: %v at 8 nodes, %v at 64",
			a[0].Cat[rt.CatComm], a[1].Cat[rt.CatComm])
	}
	// Computation must actually be skipped.
	for _, r := range res.Rows {
		if r.Cat[rt.CatAlign] > r.Runtime/100 {
			t.Errorf("comm-only run spent %v aligning", r.Cat[rt.CatAlign])
		}
	}
}

func TestFig3NoiseAndIsolation(t *testing.T) {
	res, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Rows: [68-BSP, 68-Async, 64-BSP, 64-Async]. The two core counts must
	// land close (paper: the compute gain on 68 cores is cancelled by
	// noise), within 15% at test scale.
	r68, r64 := rows[0].Runtime, rows[2].Runtime
	ratio := float64(r68) / float64(r64)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("68-core/64-core runtime ratio %.2f, want ≈1", ratio)
	}
	if rows[0].Ranks != 68 || rows[2].Ranks != 64 {
		t.Errorf("rank counts %d/%d, want 68/64", rows[0].Ranks, rows[2].Ranks)
	}
}

func TestFig13OverheadOrdering(t *testing.T) {
	res, err := Fig13(quick(8, 64))
	if err != nil {
		t.Fatal(err)
	}
	bsp, async := byMode(res.Rows, BSP), byMode(res.Rows, Async)
	for i := range bsp {
		b, a := bsp[i], async[i]
		if a.Cat[rt.CatOverhead] <= b.Cat[rt.CatOverhead] {
			t.Errorf("%d nodes: pointer-store overhead (%v) not above flat-store (%v)",
				b.Nodes, a.Cat[rt.CatOverhead], b.Cat[rt.CatOverhead])
		}
	}
}

func TestAblationAggregationMonotone(t *testing.T) {
	p := quick(8)
	p.ScaleHumanCCS = 512
	p.RanksPerNode = 4
	res, err := AblationAggregation(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for i := 1; i < len(rows); i++ {
		if rows[i].Supersteps < rows[i-1].Supersteps {
			t.Errorf("supersteps not monotone as memory shrinks: %d then %d",
				rows[i-1].Supersteps, rows[i].Supersteps)
		}
	}
	if rows[len(rows)-1].Supersteps <= rows[0].Supersteps {
		t.Error("smallest budget did not force more supersteps")
	}
}

func TestAblationOutstandingRuns(t *testing.T) {
	res, err := AblationOutstanding(quick(8))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows // caps 1, 4, 16, 64, 256, 1024
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Deeper pipelining cannot be slower in comm-only mode.
	if rows[4].Runtime > rows[1].Runtime {
		t.Errorf("cap=256 (%v) slower than cap=4 (%v)", rows[4].Runtime, rows[1].Runtime)
	}
}

func TestIntranodeRealRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline experiment")
	}
	res, err := Intranode(Params{IntraScale: 500, MaxCores: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: per mode, cores 1 and 2. Every configuration must find the
	// same hits.
	rows := cells(t, res)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows[1:] {
		if r["hits"] != rows[0]["hits"] {
			t.Errorf("%s on %s cores found %s hits, BSP on 1 found %s",
				r["mode"], r["cores"], r["hits"], rows[0]["hits"])
		}
	}
}

func TestBudgetFor(t *testing.T) {
	m := sim.CoriKNL()
	full := budgetFor(m, 64, 1)
	want := int64(float64(m.AppMemPerCore) * ExchangeFrac)
	if full != want {
		t.Errorf("unit-scale 64-rpn budget = %d, want %d", full, want)
	}
	// Coarser ranks and smaller workloads scale the budget accordingly
	// (within float rounding).
	within := func(got, want int64) bool {
		d := got - want
		return d > -256 && d < 256
	}
	if b := budgetFor(m, 4, 1); !within(b, want*16) {
		t.Errorf("rpn=4 budget = %d, want ≈%d", b, want*16)
	}
	if b := budgetFor(m, 64, 4); !within(b, want/4) {
		t.Errorf("scale=4 budget = %d, want ≈%d", b, want/4)
	}
}

func TestAblationFetchBatchShape(t *testing.T) {
	res, err := AblationFetchBatch(quick(8))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows // batches 1, 4, 16, 64
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[2].RPCsSent >= rows[0].RPCsSent {
		t.Errorf("batching did not reduce RPCs: %d -> %d", rows[0].RPCsSent, rows[2].RPCsSent)
	}
	// §5: on a high-latency network, aggregation must help.
	if rows[2].Runtime >= rows[0].Runtime {
		t.Errorf("batch=16 (%v) not faster than batch=1 (%v) at 30us latency", rows[2].Runtime, rows[0].Runtime)
	}
}

func TestServeAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("real-pipeline experiment")
	}
	res, err := Serve(Params{ServeScale: 1500, ServeJobs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := cells(t, res)
	if len(rows) != 2 || rows[0]["phase"] != "cold" || rows[1]["phase"] != "warm" {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0]["hits"] != rows[1]["hits"] || rows[0]["hits"] == "0" {
		t.Errorf("hit counts: cold %s, warm %s", rows[0]["hits"], rows[1]["hits"])
	}
}
