package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// span is one timed interval at a layer boundary. Spans of one rep (or one
// served job) share Op; Parent is the id of the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration not covered by child spans; filled when written
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced path pays one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (rc *recorder) now() int64 { return int64(time.Since(rc.t0)) }

// add records a finished span and returns its id.
func (rc *recorder) add(parent, op int, name string, rank int, start, end int64) int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{ID: id, Parent: parent, Op: op, Name: name, Rank: rank, Start: start, End: end})
	return id
}

// open reserves a span whose end is not yet known, so children can name it
// as their parent while it runs; close sets the end.
func (rc *recorder) open(parent, op int, name string, rank int) int {
	if rc == nil {
		return 0
	}
	return rc.add(parent, op, name, rank, rc.now(), 0)
}

func (rc *recorder) close(id int) {
	if rc == nil {
		return
	}
	end := rc.now()
	rc.mu.Lock()
	rc.spans[id-1].End = end
	rc.mu.Unlock()
}

// write stores the spans, with their self times, as JSON at path.
func (rc *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rc.mu.Lock()
	self := selfTimes(rc.spans)
	for i := range rc.spans {
		rc.spans[i].Self = self[rc.spans[i].ID]
	}
	data, err := json.Marshal(rc.spans)
	rc.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children — ranks
// running side by side — are merged first, so covered time counts once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi).
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := lo
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// tracedStage decorates a pipeline stage: it records one span per rank per
// call, child of the rank's body span, and counts the blocking runtime
// calls the stage makes (its sequential communication rounds).
type tracedStage struct {
	pipeline.Stage
	rec *recorder
	rep *repTrace
}

// repTrace is the per-rep state the decorators of one rep share: the body
// span of every rank and the blocking-call counts per rank and stage.
type repTrace struct {
	op     int
	body   []int                // per rank: id of the rank-body span
	stage  []map[string]float64 // per rank: stage name -> span seconds
	rounds []map[string]int     // per rank: stage name -> blocking runtime calls
}

func newRepTrace(op, ranks int) *repTrace {
	t := &repTrace{op: op, body: make([]int, ranks),
		stage: make([]map[string]float64, ranks), rounds: make([]map[string]int, ranks)}
	for i := range t.rounds {
		t.stage[i] = make(map[string]float64)
		t.rounds[i] = make(map[string]int)
	}
	return t
}

func (s tracedStage) Run(r rt.Runtime, pl *pipeline.Plan, store seq.Store, prev any) (any, error) {
	rank := r.Rank()
	cr := &countingRuntime{Runtime: r}
	start := s.rec.now()
	out, err := s.Stage.Run(cr, pl, store, prev)
	end := s.rec.now()
	s.rec.add(s.rep.body[rank], s.rep.op, s.Name(), rank, start, end)
	s.rep.stage[rank][s.Name()] = float64(end-start) / 1e9
	s.rep.rounds[rank][s.Name()] = cr.blocking
	return out, err
}

// traceStages wraps every stage of a list for one rep.
func traceStages(stages []pipeline.Stage, rec *recorder, rep *repTrace) []pipeline.Stage {
	out := make([]pipeline.Stage, len(stages))
	for i, st := range stages {
		out[i] = tracedStage{Stage: st, rec: rec, rep: rep}
	}
	return out
}

// countingRuntime counts the calls on which a rank waits for its peers.
// Each rank owns its wrapper, like the runtime handle underneath.
type countingRuntime struct {
	rt.Runtime
	blocking int
}

func (c *countingRuntime) Barrier() { c.blocking++; c.Runtime.Barrier() }

func (c *countingRuntime) Alltoallv(send [][]byte) [][]byte {
	c.blocking++
	return c.Runtime.Alltoallv(send)
}

func (c *countingRuntime) Allreduce(v int64, op rt.Op) int64 {
	c.blocking++
	return c.Runtime.Allreduce(v, op)
}

func (c *countingRuntime) Drain(max int) { c.blocking++; c.Runtime.Drain(max) }

func (c *countingRuntime) SplitBarrier() func() {
	wait := c.Runtime.SplitBarrier()
	return func() { c.blocking++; wait() }
}
