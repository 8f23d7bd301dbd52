package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/pipeline"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// Shared spec of the end-to-end tests: explicit window so the batch
// reference and the service resolve identical discovery parameters.
const (
	e2eK, e2eLo, e2eHi = 15, 2, 60
	e2eX, e2eMinScore  = 15, 100
	e2eRanks           = 4
	e2eWorkloadScale   = 600
)

func testReads(t testing.TB, seed int64) *seq.ReadSet {
	return testReadsScaled(t, seed, e2eWorkloadScale)
}

func testReadsScaled(t testing.TB, seed int64, scale int) *seq.ReadSet {
	t.Helper()
	reads, _, _, err := workload.Pipeline(workload.EColi30x, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// refTSV is the batch pipeline's answer for the same reads and spec:
// serial task discovery (provably identical to the distributed pipeline),
// serial alignment, the batch tool's sort, the batch tool's TSV format.
func refTSV(t testing.TB, reads *seq.ReadSet) string {
	t.Helper()
	tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{K: e2eK, Lo: e2eLo, Hi: e2eHi})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := core.SerialHits(reads, tasks, align.DefaultScoring(), e2eX, e2eMinScore)
	if err != nil {
		t.Fatal(err)
	}
	core.SortHits(hits)
	if len(hits) == 0 {
		t.Fatal("batch reference produced no hits; test workload broken")
	}
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", reads.Get(h.A).Name, reads.Get(h.B).Name, h.Score)
	}
	return b.String()
}

// jobJSON builds a JSON submission carrying reads plus the e2e spec.
func jobJSON(t testing.TB, reads *seq.ReadSet, mode string) []byte {
	t.Helper()
	type readDoc struct {
		Name string `json:"name"`
		Seq  string `json:"seq"`
	}
	doc := struct {
		Reads    []readDoc `json:"reads"`
		K        int       `json:"k"`
		X        int       `json:"x"`
		MinScore int       `json:"min_score"`
		LoFreq   int       `json:"lo_freq"`
		HiFreq   int       `json:"hi_freq"`
		Mode     string    `json:"mode"`
	}{K: e2eK, X: e2eX, MinScore: e2eMinScore, LoFreq: e2eLo, HiFreq: e2eHi, Mode: mode}
	for i := range reads.Reads {
		doc.Reads = append(doc.Reads, readDoc{Name: reads.Reads[i].Name, Seq: reads.Reads[i].Seq.String()})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJob(t testing.TB, base string, body []byte) Status {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit: bad status body %q: %v", raw, err)
	}
	return st
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestServeEndToEnd is the acceptance path: two jobs submitted
// concurrently to ONE resident world both complete, and each job's
// streamed hits are byte-identical to a separate batch run of the same
// reads. Afterwards the graceful drain leaves no goroutines behind.
func TestServeEndToEnd(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	srv, err := New(Config{PoolConfig: PoolConfig{
		Backend: "par", Ranks: e2eRanks, Worlds: 1, Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	// Both jobs use mode bsp so they share a batch key AND exercise the
	// Supersteps accumulation fix: under the old `=` assignment the second
	// job's snapshot/diff would report zero or negative supersteps.
	readsA, readsB := testReads(t, 1), testReads(t, 2)
	wantA, wantB := refTSV(t, readsA), refTSV(t, readsB)
	if wantA == wantB {
		t.Fatal("both workloads produced identical references; seeds broken")
	}

	type result struct {
		id  string
		tsv string
		err error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i, body := range [][]byte{jobJSON(t, readsA, "bsp"), jobJSON(t, readsB, "bsp")} {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			st := postJob(t, ts.URL, body)
			code, raw := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/hits?wait=1")
			if code != http.StatusOK {
				results[i] = result{id: st.ID, err: fmt.Errorf("hits: status %d: %s", code, raw)}
				return
			}
			results[i] = result{id: st.ID, tsv: string(raw)}
		}(i, body)
	}
	wg.Wait()
	for i, want := range []string{wantA, wantB} {
		if results[i].err != nil {
			t.Fatal(results[i].err)
		}
		if results[i].tsv != want {
			t.Errorf("job %s: hits differ from the batch reference (%d vs %d bytes)",
				results[i].id, len(results[i].tsv), len(want))
		}
	}

	// Job-scoped metrics: one row per rank, attributed to the job, with
	// real supersteps for BOTH jobs on the shared world.
	for _, res := range results {
		code, raw := getBody(t, ts.URL+"/v1/jobs/"+res.id+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics %s: status %d: %s", res.id, code, raw)
		}
		var doc struct {
			Jobs []struct {
				Job        string `json:"job"`
				Rank       int    `json:"rank"`
				Supersteps int64  `json:"supersteps"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("metrics %s: %v", res.id, err)
		}
		if len(doc.Jobs) != e2eRanks {
			t.Fatalf("metrics %s: %d rows, want %d", res.id, len(doc.Jobs), e2eRanks)
		}
		for _, row := range doc.Jobs {
			if row.Job != res.id {
				t.Errorf("metrics %s: row attributed to %q", res.id, row.Job)
			}
			if row.Supersteps < 1 {
				t.Errorf("metrics %s rank %d: %d supersteps; job-scoped diff lost the BSP rounds",
					res.id, row.Rank, row.Supersteps)
			}
		}
	}

	// Scheduler and observability surfaces.
	code, raw := getBody(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var ps PoolStats
	if err := json.Unmarshal(raw, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.Completed != 2 || ps.Failed != 0 {
		t.Errorf("stats: completed=%d failed=%d, want 2/0", ps.Completed, ps.Failed)
	}
	if code, raw = getBody(t, ts.URL+"/debug/vars"); code != http.StatusOK || !bytes.Contains(raw, []byte(`"dibserve"`)) {
		t.Errorf("/debug/vars: status %d, dibserve map present=%v", code, bytes.Contains(raw, []byte(`"dibserve"`)))
	}
	if code, _ = getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: status %d", code)
	}
	if code, _ = getBody(t, ts.URL+"/v1/jobs/no-such-job"); code != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", code)
	}

	// Graceful shutdown: drain the pool, close the HTTP server, and
	// require every worker/world goroutine to exit.
	srv.Drain()
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after drain: %d running, started with %d\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Post-drain admission is a typed draining rejection.
	srv2 := httptest.NewServer(srv.Handler())
	defer srv2.Close()
	resp, err := http.Post(srv2.URL+"/v1/jobs", "application/json", bytes.NewReader(jobJSON(t, readsA, "bsp")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain submit: no Retry-After header")
	}
}

// TestServeFASTASubmission drives the second decode path end to end: a
// FASTA body with the spec in query parameters returns the same hits.
func TestServeFASTASubmission(t *testing.T) {
	srv, err := New(Config{PoolConfig: PoolConfig{
		Backend: "par", Ranks: 2, Worlds: 1, Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reads := testReads(t, 3)
	want := refTSV(t, reads)
	var fa strings.Builder
	for i := range reads.Reads {
		fmt.Fprintf(&fa, ">%s\n%s\n", reads.Reads[i].Name, reads.Reads[i].Seq.String())
	}
	// An x past pipeline.MaxX would make every extension a full DP, and
	// the steal mode is gone: each request is refused before it reaches a
	// world.
	for _, query := range []string{fmt.Sprintf("x=%d", pipeline.MaxX+1), "mode=steal"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "text/x-fasta", strings.NewReader(fa.String()))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want %d: %s", query, resp.StatusCode, http.StatusBadRequest, raw)
		}
	}

	url := fmt.Sprintf("%s/v1/jobs?k=%d&lofreq=%d&hifreq=%d&x=%d&minscore=%d&mode=async",
		ts.URL, e2eK, e2eLo, e2eHi, e2eX, e2eMinScore)
	resp, err := http.Post(url, "text/x-fasta", strings.NewReader(fa.String()))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	code, tsv := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/hits?wait=1")
	if code != http.StatusOK {
		t.Fatalf("hits: status %d: %s", code, tsv)
	}
	if string(tsv) != want {
		t.Errorf("FASTA job: hits differ from the batch reference (%d vs %d bytes)", len(tsv), len(want))
	}
}
