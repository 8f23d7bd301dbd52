package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixedClock installs a settable virtual clock on b.
func fixedClock(b *Buf) *int64 {
	var now int64
	b.SetClock(func() int64 { return now })
	return &now
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Ranks() != 0 || tr.Rank(0) != nil {
		t.Fatal("nil tracer must report no ranks")
	}
	var b *Buf
	// Every method must no-op without panicking.
	b.SetClock(func() int64 { return 1 })
	b.Event(KindAlign, 0, 1, 0)
	b.Span(KindBarrier, 0, 0)
	b.Outstanding(7)
	if b.Now() != 0 || b.Len() != 0 || b.Dropped() != 0 || b.RPCHighWater() != 0 {
		t.Fatal("nil buf must read as empty")
	}
	if got := b.Events(nil); got != nil {
		t.Fatalf("nil buf returned events: %v", got)
	}
}

func TestTracerRankBounds(t *testing.T) {
	tr := New(2, Config{})
	if tr.Ranks() != 2 {
		t.Fatalf("Ranks = %d", tr.Ranks())
	}
	if tr.Rank(-1) != nil || tr.Rank(2) != nil {
		t.Fatal("out-of-range ranks must be nil")
	}
	if tr.Rank(0) == nil || tr.Rank(1) == nil || tr.Rank(0) == tr.Rank(1) {
		t.Fatal("in-range ranks must be distinct buffers")
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(1, Config{BufCap: 4})
	b := tr.Rank(0)
	fixedClock(b)
	for i := 0; i < 10; i++ {
		b.Event(KindBarrier, int64(i), int64(i)+1, int64(i))
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", b.Dropped())
	}
	evs := b.Events(nil)
	if len(evs) != 4 {
		t.Fatalf("Events returned %d", len(evs))
	}
	// Flight-recorder semantics: the most recent window, in order.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Start != want {
			t.Errorf("event %d: Start = %d, want %d", i, ev.Start, want)
		}
	}
}

func TestSampling(t *testing.T) {
	tr := New(1, Config{BufCap: 1024, Sample: 4})
	b := tr.Rank(0)
	fixedClock(b)
	for i := 0; i < 100; i++ {
		b.Event(KindAlign, int64(i), int64(i), 0) // sampled kind: 1 in 4 kept
		b.Event(KindBarrier, int64(i), int64(i), 0)
	}
	var align, barrier int
	for _, ev := range b.Events(nil) {
		switch ev.Kind {
		case KindAlign:
			align++
		case KindBarrier:
			barrier++
		}
	}
	if align != 25 {
		t.Errorf("kept %d align events, want 25 (1 in 4 of 100)", align)
	}
	if barrier != 100 {
		t.Errorf("kept %d barrier events, want all 100 (coordination kinds are never sampled)", barrier)
	}
}

func TestOutstandingHighWater(t *testing.T) {
	tr := New(1, Config{})
	b := tr.Rank(0)
	for _, n := range []int{1, 5, 3, 4} {
		b.Outstanding(n)
	}
	if b.RPCHighWater() != 5 {
		t.Fatalf("RPCHighWater = %d, want 5", b.RPCHighWater())
	}
}

func TestKindNamesAndCategories(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Category() == "other" {
			t.Errorf("kind %d (%s) has no category", k, k)
		}
	}
}

func TestSummarize(t *testing.T) {
	rows := []RankMetrics{
		{Rank: 0, AlignSec: 1, ElapsedSec: 2, BytesRecv: 100, Msgs: 3, BytesSent: 50, MaxMem: 10, RPCPeak: 2},
		{Rank: 1, AlignSec: 3, ElapsedSec: 2, BytesRecv: 300, Msgs: 5, BytesSent: 70, MaxMem: 30, RPCPeak: 9},
	}
	s := Summarize(rows)
	if s.Ranks != 2 || s.TotalMsgs != 8 || s.TotalBytesSent != 120 || s.MaxMem != 30 || s.RPCPeak != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.AlignImbalance != 1.5 { // max 3 / mean 2
		t.Errorf("AlignImbalance = %v, want 1.5", s.AlignImbalance)
	}
	if s.ElapsedImbalance != 1.0 {
		t.Errorf("ElapsedImbalance = %v, want 1.0", s.ElapsedImbalance)
	}
	if s.RecvImbalance != 1.5 {
		t.Errorf("RecvImbalance = %v, want 1.5", s.RecvImbalance)
	}
	if got := Summarize(nil); got.AlignImbalance != 1 {
		t.Errorf("empty summary imbalance = %v, want 1", got.AlignImbalance)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := New(2, Config{})
	b := tr.Rank(1)
	fixedClock(b)
	b.Event(KindExchange, 1000, 2500, 64)
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, tr, "unit fixture"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ts   json.Number     `json:"ts"`
			Dur  json.Number     `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, out.Bytes())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "alltoallv" {
			found = true
			if ev.Tid != 1 || ev.Cat != "comm" {
				t.Errorf("alltoallv event on tid %d cat %q", ev.Tid, ev.Cat)
			}
			if ev.Ts.String() != "1.000" || ev.Dur.String() != "1.500" {
				t.Errorf("ts/dur = %s/%s, want 1.000/1.500 (ns -> us)", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatalf("no alltoallv X event in output:\n%s", out.Bytes())
	}
}

func TestMetricsCSVShape(t *testing.T) {
	rows := []RankMetrics{{Rank: 0, AlignSec: 0.5, Msgs: 2}, {Rank: 1, AlignSec: 1.5, Msgs: 4}}
	var out bytes.Buffer
	if err := WriteMetricsCSV(&out, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 2 ranks + imbalance footer
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "rank,align_sec,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[3], "imbalance,1.5000,") {
		t.Errorf("footer = %q", lines[3])
	}
}

// BenchmarkEventDisabled measures the disabled-tracing cost drivers pay at
// every instrumentation point: one nil check.
func BenchmarkEventDisabled(b *testing.B) {
	var buf *Buf
	for i := 0; i < b.N; i++ {
		buf.Event(KindAlign, int64(i), int64(i)+1, 0)
	}
}

// BenchmarkEventEnabled measures the enabled hot-path cost (ring write,
// no locks, no allocation).
func BenchmarkEventEnabled(b *testing.B) {
	tr := New(1, Config{})
	buf := tr.Rank(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Event(KindAlign, int64(i), int64(i)+1, 0)
	}
}
