package serve

import (
	"errors"
	"flag"
	"net/url"
	"strings"
	"testing"
)

func TestDecodeJSON(t *testing.T) {
	body := []byte(`{"reads":[{"name":"a","seq":"ACGTACGT"},{"seq":"TTTT"}],"k":15,"x":9,"min_score":42,"lo_freq":2,"hi_freq":60,"mode":"async"}`)
	rq, err := DecodeJobRequest("application/json; charset=utf-8", nil, body, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rq.K != 15 || rq.X != 9 || rq.MinScore != 42 || rq.Mode != "async" {
		t.Errorf("spec not decoded: %+v", rq.JobSpec)
	}
	rs, err := rq.ReadSet()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Get(0).Name != "a" || rs.Get(1).Name != "read1" {
		t.Errorf("read set: len=%d names=%q,%q", rs.Len(), rs.Get(0).Name, rs.Get(1).Name)
	}
}

// TestDecodeFASTAWithQuerySpec: the query takes dibella's flag names, and
// all eight knobs set there give the spec the same names passed as
// command-line flags to the binding dibella parses with.
func TestDecodeFASTAWithQuerySpec(t *testing.T) {
	knobs := [][2]string{{"k", "15"}, {"x", "0"}, {"minscore", "77"}, {"coverage", "30"},
		{"error", "0.1"}, {"lofreq", "3"}, {"hifreq", "50"}, {"mode", "async"}}
	params := url.Values{"chaos_kill_rank": {"2"}, "unknown": {"ignored"}}
	var args []string
	for _, kv := range knobs {
		params.Set(kv[0], kv[1])
		args = append(args, "-"+kv[0], kv[1])
	}
	rq, err := DecodeJobRequest("text/x-fasta", params, []byte(">r0\nACGT\nACGT\n>r1\nTTTTT\n"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var flags JobSpec
	fs := flag.NewFlagSet("dibella", flag.ContinueOnError)
	flags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := JobSpec{K: 15, X: 0, MinScore: 77, Coverage: 30, ErrRate: 0.1, LoFreq: 3, HiFreq: 50, Mode: "async"}
	if rq.JobSpec != want || flags != want {
		t.Errorf("query spec %+v, flag spec %+v, want %+v", rq.JobSpec, flags, want)
	}
	if rq.ChaosKillRank == nil || *rq.ChaosKillRank != 2 {
		t.Errorf("chaos_kill_rank not decoded: %v", rq.ChaosKillRank)
	}
	if len(rq.Reads) != 2 || rq.Reads[0].Seq != "ACGTACGT" {
		t.Errorf("fasta reads: %+v", rq.Reads)
	}
}

// TestDecodeDefaults: an absent field takes the default, and a present
// one is used as given, zero included.
func TestDecodeDefaults(t *testing.T) {
	rq, err := DecodeJobRequest("application/json", nil, []byte(`{"reads":[{"seq":"ACGT"}]}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rq.K != 17 || rq.X != 15 || rq.MinScore != 100 || rq.Mode != "bsp" || rq.ErrRate != 0.15 {
		t.Errorf("defaults not applied: %+v", rq.JobSpec)
	}
	rq, err = DecodeJobRequest("application/json", nil, []byte(`{"reads":[{"seq":"ACGT"}],"x":0,"min_score":0,"error_rate":0}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rq.X != 0 || rq.MinScore != 0 || rq.ErrRate != 0 || rq.K != 17 {
		t.Errorf("explicit zeros not kept: %+v", rq.JobSpec)
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name  string
		ct    string
		body  string
		query string
		want  error
	}{
		{"gzip magic", "application/json", "\x1f\x8b\x08rest", "", ErrCompressed},
		{"gzip magic fasta", "text/plain", "\x1f\x8bcompressed", "", ErrCompressed},
		{"unknown content type", "application/xml", "<reads/>", "", ErrUnsupportedMedia},
		{"empty content type", "", "{}", "", ErrUnsupportedMedia},
		{"unknown json field", "application/json", `{"reads":[{"seq":"A"}],"bogus":1}`, "", ErrBadRequest},
		{"trailing document", "application/json", `{"reads":[{"seq":"A"}]}{"again":true}`, "", ErrBadRequest},
		{"no reads", "application/json", `{"reads":[]}`, "", ErrBadRequest},
		{"bad k", "application/json", `{"reads":[{"seq":"A"}],"k":99}`, "", ErrBadRequest},
		{"bad mode", "application/json", `{"reads":[{"seq":"A"}],"mode":"turbo"}`, "", ErrBadRequest},
		{"removed mode", "application/json", `{"reads":[{"seq":"A"}],"mode":"steal"}`, "", ErrBadRequest},
		{"removed query mode", "text/plain", ">r\nACGT\n", "mode=steal", ErrBadRequest},
		{"malformed json", "application/json", `{"reads":`, "", ErrBadRequest},
		{"negative x", "application/json", `{"reads":[{"seq":"A"}],"x":-1}`, "", ErrBadRequest},
		{"huge query x", "text/plain", ">r\nACGT\n", "x=1073741824", ErrBadRequest},
		{"bad query int", "text/plain", ">r\nACGT\n", "k=banana", ErrBadRequest},
		{"huge query coverage", "text/plain", ">r\nACGT\n", "coverage=1e10", ErrBadRequest},
		{"NaN query coverage", "text/plain", ">r\nACGT\n", "coverage=NaN", ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			_, err = DecodeJobRequest(tc.ct, params, []byte(tc.body), Limits{})
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeLimits(t *testing.T) {
	body := []byte(`{"reads":[{"seq":"ACGT"},{"seq":"ACGT"},{"seq":"ACGT"}]}`)
	if _, err := DecodeJobRequest("application/json", nil, body, Limits{MaxReads: 2}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("MaxReads: got %v, want ErrBadRequest", err)
	}
	if _, err := DecodeJobRequest("application/json", nil, body, Limits{MaxBases: 8}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("MaxBases: got %v, want ErrBadRequest", err)
	}
	if _, err := DecodeJobRequest("application/json", nil, body, Limits{MaxReads: 3, MaxBases: 12}); err != nil {
		t.Errorf("within limits: %v", err)
	}
}

func TestDecodeInvalidBases(t *testing.T) {
	rq, err := DecodeJobRequest("application/json", nil, []byte(`{"reads":[{"seq":"ACGT!"}]}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rq.ReadSet(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid base: got %v, want ErrBadRequest", err)
	}
}

// maxFuzzRequest is the most bytes FuzzJobRequest decodes, content type,
// body and query together: a few reads and every spec field. The engine
// minimizes each new input in time quadratic in its length; unbounded,
// one minimization held both workers at 0 execs a second. The decoder's
// own limits are covered by the table tests.
const maxFuzzRequest = 256

// FuzzJobRequest pins the hardening contract: whatever bytes arrive under
// whatever content type and query string, the decoder returns a typed
// error or a valid request — it never panics, an accepted spec passes
// Validate, and an accepted request always materialises (or typed-rejects)
// as a read set.
func FuzzJobRequest(f *testing.F) {
	f.Add("application/json", []byte(`{"reads":[{"name":"a","seq":"ACGT"}],"k":15}`), "")
	f.Add("application/json", []byte(`{"reads":[{"seq":"A"}],"mode":"async","coverage":30,"error_rate":0.15}`), "")
	f.Add("text/plain", []byte(">r0\nACGTACGT\n>r1\nTT\n"), "k=15&chaos_kill_rank=1")
	f.Add("text/x-fasta", []byte(">r\nNNNN\n"), "mode=async&coverage=30&error=0.15&x=0")
	f.Add("application/json", []byte("\x1f\x8b\x08\x00"), "")
	f.Add("application/octet-stream", []byte{0, 1, 2}, "")
	f.Add("application/json", []byte(`{"reads":[{"seq":"`+strings.Repeat("A", 100)+`"}]}`), "")
	f.Add("text/plain", []byte(">r\nACGT\n"), "coverage=NaN&k=&lofreq=-1&hifreq=1e3&minscore=%zz")
	f.Fuzz(func(t *testing.T, ct string, body []byte, query string) {
		if len(ct)+len(body)+len(query) > maxFuzzRequest {
			return
		}
		params, _ := url.ParseQuery(query) // what parses reaches the decoder
		rq, err := DecodeJobRequest(ct, params, body, Limits{MaxReads: 1 << 10, MaxBases: 1 << 16})
		if err != nil {
			if rq != nil {
				t.Fatal("non-nil request alongside error")
			}
			return
		}
		if err := rq.Validate(); err != nil {
			t.Fatalf("accepted an invalid spec %+v: %v", rq.JobSpec, err)
		}
		if len(rq.Reads) == 0 {
			t.Fatal("accepted request with no reads")
		}
		if rs, rerr := rq.ReadSet(); rerr == nil && rs.Len() != len(rq.Reads) {
			t.Fatalf("read set %d reads, request %d", rs.Len(), len(rq.Reads))
		}
	})
}
