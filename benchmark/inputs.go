package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"gnbody/internal/genome"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// Input generation. Everything here is benchmark-side and untimed; the
// program under test sees only the FASTA files, task lists and request
// bodies it produces. Every generator is a pure function of the seed.
//
// Runs with different seeds are compared with each other, so the generators
// keep the *amount* of work steady across seeds while the content changes:
// read lengths are the quantiles of the length distribution (the same
// multiset for every seed, dealt out in seeded order) and start positions
// are stratified along the genome instead of drawn independently. Bases,
// sequencing errors, strands, read order and the task graph's wiring all
// vary with the seed.

// stream returns the independent generator for part n of a seed's inputs.
func stream(seed int64, n int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + n))
}

// readSpec describes a sampled read set.
type readSpec struct {
	GenomeLen   int
	Coverage    float64
	MedianLen   int     // median of the log-normal length distribution
	Sigma       float64 // its shape
	ErrRate     float64 // total per-base error rate (0 = error-free)
	BothStrands bool
}

// quantileLens returns n lengths, the (i+½)/n quantiles of the log-normal
// with the given median and shape, clamped to [median/4, 4·median].
func quantileLens(n, medianLen int, sigma float64) []int {
	lens := make([]int, n)
	for i := range lens {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		l := int(float64(medianLen) * math.Exp(sigma*z))
		lens[i] = min(max(l, medianLen/4), 4*medianLen)
	}
	return lens
}

// sampleReads draws a genome and a read set from it. Read IDs are in
// seeded random order, so a contiguous partition splits overlapping reads
// across ranks the way an unsorted sequencer file does.
func sampleReads(seed int64, sp readSpec) (seq.Seq, *seq.ReadSet) {
	g := genome.Generate(genome.Config{Length: sp.GenomeLen, Seed: seed*1_000_003 + 1})
	rng := stream(seed, 2)
	meanLen := float64(sp.MedianLen) * math.Exp(sp.Sigma*sp.Sigma/2)
	n := int(math.Round(sp.Coverage * float64(sp.GenomeLen) / meanLen))
	lens := quantileLens(n, sp.MedianLen, sp.Sigma)
	rng.Shuffle(n, func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	em := genome.ErrorModel{
		Substitution: sp.ErrRate * 0.4, Insertion: sp.ErrRate * 0.35,
		Deletion: sp.ErrRate * 0.22, NRate: sp.ErrRate * 0.03,
	}
	seqs := make([]seq.Seq, n)
	for slot, l := range lens {
		l = min(l, sp.GenomeLen)
		// Stratified start: slot j of n lands in the j-th n-th of the
		// admissible start range.
		start := int((float64(slot) + rng.Float64()) / float64(n) * float64(sp.GenomeLen-l+1))
		tpl := g[start : start+l]
		if sp.BothStrands && rng.Intn(2) == 1 {
			tpl = tpl.ReverseComplement()
		}
		seqs[slot] = applyErrors(rng, tpl, em)
	}
	rng.Shuffle(n, func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	return g, seq.NewReadSet(seqs)
}

// applyErrors passes a template through the sequencer error channel of
// package genome (insertion before a base, then deletion, N call or
// substitution of it).
func applyErrors(rng *rand.Rand, tpl seq.Seq, e genome.ErrorModel) seq.Seq {
	if e.Total() == 0 {
		return tpl.Clone()
	}
	out := make(seq.Seq, 0, len(tpl)+len(tpl)/8)
	for _, b := range tpl {
		if rng.Float64() < e.Insertion {
			out = append(out, seq.Base(rng.Intn(4)))
		}
		switch {
		case rng.Float64() < e.Deletion:
		case rng.Float64() < e.NRate:
			out = append(out, seq.N)
		case rng.Float64() < e.Substitution:
			nb := seq.Base(rng.Intn(3))
			if nb >= b {
				nb++
			}
			out = append(out, nb)
		default:
			out = append(out, b)
		}
	}
	return out
}

// exchangeGraph builds the communication workload: a Zipf-skewed task
// graph over reads of log-normal length (median 10 kb), and random bases
// of exactly those lengths so the real wire codec has payloads to carry.
func exchangeGraph(seed int64, reads int) (*workload.Workload, *seq.ReadSet, error) {
	const medianLen, coverage, tasksPerRead = 10000, 1.5, 5
	preset := workload.Preset{
		Name: "exchange", PaperReads: reads, PaperTasks: int64(reads) * tasksPerRead,
		GenomeLen: int64(float64(reads) * medianLen / coverage), Coverage: coverage,
		ErrRate: 0.15, MeanLen: medianLen, SigmaLog: 0.35, RepeatMax: 700,
	}
	w, err := workload.Synthesize(preset, 1, seed*1_000_003+3)
	if err != nil {
		return nil, nil, err
	}
	rng := stream(seed, 4)
	seqs := make([]seq.Seq, len(w.Lens))
	for i, l := range w.Lens {
		s := make(seq.Seq, l)
		for j := 0; j < len(s); {
			// One 62-bit draw fills 31 bases.
			for v, k := rng.Int63(), 0; k < 31 && j < len(s); v, k, j = v>>2, k+1, j+1 {
				s[j] = seq.Base(v & 3)
			}
		}
		seqs[i] = s
	}
	return w, seq.NewReadSet(seqs), nil
}

// writeFASTA stores a read set where the program under test will load it.
func writeFASTA(path string, rs *seq.ReadSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := seq.WriteFASTA(f, rs, 80); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// poissonSchedule returns n due times (seconds from the phase start) of a
// Poisson arrival process at the given rate. A pure function of its
// arguments.
func poissonSchedule(seed int64, n int, rate float64) []float64 {
	rng := stream(seed, 5)
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = t
	}
	return due
}
