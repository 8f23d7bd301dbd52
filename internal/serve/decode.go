package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"mime"
	"net/url"
	"strconv"

	"gnbody/internal/pipeline"
	"gnbody/internal/seq"
)

// Decode-side hardening limits. Bodies are additionally capped at the HTTP
// layer by http.MaxBytesReader before they reach the decoder.
const (
	// DefaultMaxReads bounds the number of reads one job may submit.
	DefaultMaxReads = 1 << 20
	// DefaultMaxBases bounds the total base count of one job's read set.
	DefaultMaxBases = int64(1) << 31
)

// Typed decode failures; the HTTP layer maps them onto status codes.
var (
	// ErrUnsupportedMedia: the Content-Type is not a job payload we accept.
	ErrUnsupportedMedia = errors.New("serve: unsupported content type")
	// ErrBadRequest: the payload is malformed or violates a limit.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrCompressed: compressed payloads are rejected outright — the
	// decoder refuses to expand attacker-controlled gzip (a body limit is
	// meaningless if the limited bytes decompress without bound).
	ErrCompressed = errors.New("serve: compressed payloads not accepted")
)

// badf wraps a malformed-payload failure so errors.Is(err, ErrBadRequest)
// matches.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// ReadJSON is one read in a JSON job submission.
type ReadJSON struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// JobRequest is the decoded form of one job submission, before admission.
type JobRequest struct {
	Reads []ReadJSON `json:"reads"`
	JobSpec

	// ChaosKillRank arms the chaos hook for this job (see Config.Chaos);
	// negative or absent means none.
	ChaosKillRank *int `json:"chaos_kill_rank,omitempty"`
}

// Limits bounds what one decoded job may contain.
type Limits struct {
	MaxReads int
	MaxBases int64
}

func (l Limits) withDefaults() Limits {
	if l.MaxReads <= 0 {
		l.MaxReads = DefaultMaxReads
	}
	if l.MaxBases <= 0 {
		l.MaxBases = DefaultMaxBases
	}
	return l
}

// DecodeJobRequest parses one job submission from its Content-Type, query
// parameters and body:
//
//   - application/json: a JobRequest document (unknown fields rejected);
//   - text/x-fasta, application/x-fasta, text/plain: a FASTA body, with
//     the spec taken from the query string under dibella's flag names
//     (k, x, minscore, coverage, error, lofreq, hifreq, mode) plus
//     chaos_kill_rank; other parameters are ignored.
//
// Either way the spec starts from pipeline.DefaultJobSpec: an absent knob
// keeps its default, a present one is used as given, and the result must
// pass JobSpec.Validate.
//
// The decoder never panics on any input (FuzzJobRequest enforces it) and
// returns typed errors: ErrUnsupportedMedia, ErrCompressed, or an
// ErrBadRequest-wrapped cause.
func DecodeJobRequest(contentType string, params url.Values, body []byte, lim Limits) (*JobRequest, error) {
	lim = lim.withDefaults()
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedMedia, contentType)
	}
	if len(body) >= 2 && body[0] == 0x1f && body[1] == 0x8b {
		return nil, ErrCompressed
	}
	rq := &JobRequest{JobSpec: pipeline.DefaultJobSpec()}
	switch mt {
	case "application/json":
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rq); err != nil {
			return nil, badf("json: %v", err)
		}
		// Exactly one JSON document.
		if dec.More() {
			return nil, badf("trailing data after json document")
		}
	case "text/x-fasta", "application/x-fasta", "text/plain":
		rs, err := seq.LoadReader(bytes.NewReader(body))
		if err != nil {
			return nil, badf("fasta: %v", err)
		}
		rq.Reads = make([]ReadJSON, rs.Len())
		for i := range rs.Reads {
			rq.Reads[i] = ReadJSON{Name: rs.Reads[i].Name, Seq: rs.Reads[i].Seq.String()}
		}
		if err := rq.specFromQuery(params); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedMedia, contentType)
	}
	if err := rq.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(rq.Reads) == 0 {
		return nil, badf("no reads in job")
	}
	if len(rq.Reads) > lim.MaxReads {
		return nil, badf("%d reads exceeds the %d-read limit", len(rq.Reads), lim.MaxReads)
	}
	var bases int64
	for i := range rq.Reads {
		bases += int64(len(rq.Reads[i].Seq))
	}
	if bases > lim.MaxBases {
		return nil, badf("%d bases exceeds the %d-base limit", bases, lim.MaxBases)
	}
	return rq, nil
}

// specFromQuery sets the spec's knobs present in the query through the
// flag binding dibella parses its command line with, and the chaos hook.
func (rq *JobRequest) specFromQuery(params url.Values) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	rq.Bind(fs)
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		if err == nil && params.Has(f.Name) {
			v := params.Get(f.Name)
			if serr := fs.Set(f.Name, v); serr != nil {
				err = badf("query %s=%q: %v", f.Name, v, serr)
			}
		}
	})
	if err != nil {
		return err
	}
	if v := params.Get("chaos_kill_rank"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return badf("query chaos_kill_rank=%q: %v", v, err)
		}
		rq.ChaosKillRank = &n
	}
	return nil
}

// ReadSet materialises the request's reads with dense IDs, validating
// every base. Names default to readN when absent.
func (rq *JobRequest) ReadSet() (*seq.ReadSet, error) {
	rs := &seq.ReadSet{Reads: make([]seq.Read, len(rq.Reads))}
	for i, r := range rq.Reads {
		s, err := seq.FromString(r.Seq)
		if err != nil {
			return nil, badf("read %d (%q): %v", i, r.Name, err)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("read%d", i)
		}
		rs.Reads[i] = seq.Read{ID: seq.ReadID(i), Name: name, Seq: s}
	}
	return rs, nil
}
