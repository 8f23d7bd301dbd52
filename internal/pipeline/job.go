package pipeline

import (
	"flag"
	"fmt"

	"gnbody/internal/kmer"
)

// MaxCoverage bounds JobSpec.Coverage. kmer.ReliableWindow walks a binomial
// CDF in O(coverage) steps, so an unbounded depth lets one job stall its
// setup; the paper's inputs are at most 100×, and 1000× keeps the walk
// under a millisecond.
const MaxCoverage = 1000

// MaxX bounds JobSpec.X. The X-drop band is about 2x/|gap| columns wide,
// so an x near 2^30 turns every extension into the full, unpruned DP, and
// one job then holds its world for a time that grows with the product of
// the read lengths. Every test, experiment and benchmark runs x <= 100;
// 1000 leaves ten times that.
const MaxX = 1000

// JobSpec is the overlap job's parameterisation — the one declaration both
// front ends share: cmd/dibella binds it to flags, internal/serve decodes
// it from a JSON document or from the same flag names in a query string.
// It must stay comparable: the service batches jobs onto a warm world by
// comparing specs with ==.
type JobSpec struct {
	K        int     `json:"k"`
	X        int     `json:"x"`
	MinScore int     `json:"min_score"`
	Coverage float64 `json:"coverage"`
	ErrRate  float64 `json:"error_rate"`
	LoFreq   int     `json:"lo_freq"`
	HiFreq   int     `json:"hi_freq"`
	Mode     string  `json:"mode"` // "bsp" or "async"
}

// DefaultJobSpec is the job every knob left unset describes.
func DefaultJobSpec() JobSpec {
	return JobSpec{K: 17, X: 15, MinScore: 100, ErrRate: 0.15, Mode: "bsp"}
}

// Bind resets s to the defaults and registers one flag per knob on fs.
func (s *JobSpec) Bind(fs *flag.FlagSet) {
	*s = DefaultJobSpec()
	fs.IntVar(&s.K, "k", s.K, "k-mer length")
	fs.IntVar(&s.X, "x", s.X, fmt.Sprintf("X-drop parameter (at most %d)", MaxX))
	fs.IntVar(&s.MinScore, "minscore", s.MinScore, "minimum alignment score to save")
	fs.Float64Var(&s.Coverage, "coverage", s.Coverage, fmt.Sprintf("sequencing depth for the BELLA filter window (at most %d)", MaxCoverage))
	fs.Float64Var(&s.ErrRate, "error", s.ErrRate, "error rate for the BELLA filter window, in [0, 1)")
	fs.IntVar(&s.LoFreq, "lofreq", s.LoFreq, "explicit k-mer frequency lower bound (overrides BELLA model)")
	fs.IntVar(&s.HiFreq, "hifreq", s.HiFreq, "explicit k-mer frequency upper bound (overrides BELLA model)")
	fs.StringVar(&s.Mode, "mode", s.Mode, "coordination strategy: bsp or async")
}

// Validate rejects a spec no run can take. The negated range tests also
// reject NaN, which keeps == on specs reflexive.
func (s JobSpec) Validate() error {
	switch {
	case s.K < 1 || s.K > kmer.MaxK:
		return fmt.Errorf("k=%d out of range (1..%d)", s.K, kmer.MaxK)
	case s.X < 0 || s.X > MaxX:
		return fmt.Errorf("x=%d out of range [0, %d]", s.X, MaxX)
	case !(s.Coverage >= 0 && s.Coverage <= MaxCoverage):
		return fmt.Errorf("coverage=%g out of range [0, %d]", s.Coverage, MaxCoverage)
	case !(s.ErrRate >= 0 && s.ErrRate < 1):
		return fmt.Errorf("error rate %g out of range [0, 1)", s.ErrRate)
	case s.LoFreq < 0 || s.HiFreq < 0:
		return fmt.Errorf("negative frequency bound (lofreq=%d, hifreq=%d)", s.LoFreq, s.HiFreq)
	}
	switch s.Mode {
	case "bsp", "async":
		return nil
	}
	return fmt.Errorf("unknown mode %q (want bsp or async)", s.Mode)
}

// Discovery is the stage-1/2 spec the job implies, for NewPlan.
func (s JobSpec) Discovery() Spec {
	return Spec{K: s.K, Lo: s.LoFreq, Hi: s.HiFreq, Coverage: s.Coverage, ErrRate: s.ErrRate}
}

// AlignStage is the align stage the job implies; callers may set the
// executor (Exec) on top.
func (s JobSpec) AlignStage() AlignStage {
	return AlignStage{Mode: s.Mode, MinScore: s.MinScore, X: s.X}
}
