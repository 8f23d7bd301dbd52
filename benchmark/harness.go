package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Run shape shared by every workload (README "Run shape").
const (
	ranks      = 2 // every timed body; more ranks than cores measures the scheduler
	warmupReps = 2

	// Set-up cycles run for a fifth of the timed phase's length, and at
	// least minSetupCycles and at most maxSetupCycles times: a cycle takes
	// 0.04 to 0.5 s depending on the workload, and the median of only five
	// moves by a quarter from run to run on this machine.
	setupShare     = 0.2
	minSetupCycles = 5
	maxSetupCycles = 25
)

// env is one workload run: its arguments, where its report goes, and what
// it has measured so far.
type env struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool
	short    bool   // toy input sizes (tests)
	dir      string // scratch directory for generated inputs
	rec      *recorder
	report   io.Writer // human-readable lines; the result JSON goes to stdout last

	attempted, failed int
	values            map[string]float64 // metric name -> value
	slowdowns         []float64          // every machine-speed sample applied to a time
}

// fail counts one failed operation and says why.
func (e *env) fail(format string, args ...any) {
	e.failed++
	fmt.Fprintf(e.report, "FAIL %s: %s\n", e.workload, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (e *env) set(name string, v float64) { e.values[name] = v }

// timing records a timing metric as the median of its samples and prints
// the quartiles and the sample count beside it.
func (e *env) timing(name, unit string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	e.set(name, med)
	fmt.Fprintf(e.report, "  %-28s %12.6g %-8s q1 %.6g  q3 %.6g  n %d\n", name, med, unit, q1, q3, len(samples))
}

// measureSetup times the set-up cycles (untraced runs only: the traced run
// reports per-layer metrics and spends the time on probes instead). It is
// the first thing the program under test does, so the resident-set
// high-water mark restarts here: input generation and the reference run
// are the benchmark's, not the program's.
func (e *env) measureSetup(cycle func() error) error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(e.report, "  note: peak_rss_mb includes input generation and the reference run: %v\n", err)
	}
	if e.trace {
		return nil
	}
	var secs []float64
	start := time.Now()
	meter := newSpeedMeter()
	for i := 0; i < maxSetupCycles && (i < minSetupCycles || time.Since(start).Seconds() < setupShare*e.seconds); i++ {
		t0 := time.Now()
		if err := cycle(); err != nil {
			return fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		raw := time.Since(t0).Seconds()
		secs = append(secs, raw*meter.factor())
	}
	e.timing("setup_s", "s", secs)
	e.slowdowns = append(e.slowdowns, meter.slows...)
	return nil
}

// phase is the accounting around a timed phase: allocation and GC deltas.
type phase struct {
	before runtime.MemStats
}

func beginPhase() *phase {
	p := &phase{}
	runtime.GC() // start every timed phase from a collected heap
	runtime.ReadMemStats(&p.before)
	return p
}

// end records the per-operation allocation volume and the GC activity of
// the phase.
func (p *phase) end(e *env, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e.set("alloc_mb", float64(after.TotalAlloc-p.before.TotalAlloc)/1e6/float64(ops))
	e.set("go.gc_cycles", float64(after.NumGC-p.before.NumGC))
	e.set("go.gc_pause_ms", float64(after.PauseTotalNs-p.before.PauseTotalNs)/1e6)
}

// timedReps runs the warm-up reps and then timed reps until both minReps
// and the run's seconds are reached. rep runs the workload's whole body
// once on the resident world and returns its raw wall time; in a traced run
// reps alternate between traced and untraced, and the difference of the
// two medians is the tracing overhead. It returns, for every timed rep in
// order, the factor that calibrates its times.
func (e *env) timedReps(minReps int, rep func(traced bool) (float64, error)) (factors []float64, err error) {
	if e.short {
		minReps = max(4, minReps/10)
	}
	for i := 0; i < warmupReps; i++ {
		if _, err := rep(e.trace); err != nil {
			return nil, fmt.Errorf("warm-up rep %d: %w", i, err)
		}
	}
	ph := beginPhase()
	var plain, traced, raw []float64
	meter := newSpeedMeter()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		tr := e.trace && n%2 == 1
		w, err := rep(tr)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", n, err)
		}
		k := meter.factor()
		factors, raw = append(factors, k), append(raw, w)
		if tr {
			traced = append(traced, w*k)
		} else {
			plain = append(plain, w*k)
		}
	}
	ph.end(e, len(raw))
	e.slowdowns = append(e.slowdowns, meter.slows...)
	e.timing("wall_s", "s", plain)
	e.set("job_p50_s", median(plain))
	fmt.Fprintf(e.report, "  (raw median rep time %.6g s)\n", median(raw))
	if e.trace {
		base := median(plain)
		e.set("trace.overhead_frac", (median(traced)-base)/base)
		fmt.Fprintf(e.report, "  %-28s %12.6g ratio    (traced median %.6g s over untraced %.6g s)\n",
			"trace.overhead_frac", e.values["trace.overhead_frac"], median(traced), base)
	}
	return factors, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the run's result: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (e *env) result() result {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: e.values[d.Name], Unit: d.Unit}
	}
	return res
}

// runWorkload runs one workload in this process and prints its result line.
func runWorkload(def workloadDef, e *env) error {
	e.workload = def.Name
	e.values = make(map[string]float64)
	if e.trace {
		e.rec = newRecorder()
	}
	scratch, err := os.MkdirTemp(e.dir, "tmp-"+def.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	outDir := e.dir
	e.dir = scratch
	fmt.Fprintf(e.report, "%s seed %d, %g s, trace %v\n", def.Name, e.seed, e.seconds, e.trace)
	stopSpinner, err := keepAwake()
	if err != nil {
		return err
	}
	defer stopSpinner()
	if err := def.Run(e); err != nil {
		return fmt.Errorf("%s: %w", def.Name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e.set("peak_rss_mb", rss)
	e.timing("machine.slowdown", "ratio", e.slowdowns)
	if e.trace {
		path := outDir + "/" + def.Name + ".spans.json"
		if err := e.rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(e.report, "  %d spans -> %s\n", len(e.rec.spans), path)
	}
	res := e.result()
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(e.report, "  = %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(e.report, "  operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", def.Name, res.Failed, res.Attempted)
	}
	return nil
}
