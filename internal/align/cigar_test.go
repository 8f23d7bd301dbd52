package align

import (
	"math/rand"
	"testing"

	"gnbody/internal/seq"
)

func TestCigarString(t *testing.T) {
	c := Cigar{{OpMatch, 12}, {OpIns, 1}, {OpMatch, 3}, {OpDel, 2}}
	if got := c.String(); got != "12=1I3=2D" {
		t.Errorf("String = %q", got)
	}
	if (Cigar{}).String() != "" {
		t.Error("empty cigar should render empty")
	}
}

func TestCigarCounts(t *testing.T) {
	c := Cigar{{OpMatch, 10}, {OpMismatch, 2}, {OpIns, 3}, {OpDel, 1}}
	aLen, bLen, matches, alnLen := c.Counts()
	if aLen != 15 || bLen != 13 || matches != 10 || alnLen != 16 {
		t.Errorf("Counts = (%d,%d,%d,%d)", aLen, bLen, matches, alnLen)
	}
}

func TestCigarValidateRejectsLies(t *testing.T) {
	a := seq.MustFromString("ACGT")
	b := seq.MustFromString("ACGT")
	if err := (Cigar{{OpMatch, 4}}).Validate(a, b); err != nil {
		t.Errorf("honest cigar rejected: %v", err)
	}
	bad := []Cigar{
		{{OpMismatch, 4}},            // claims mismatches on identical seqs
		{{OpMatch, 5}},               // overruns
		{{OpMatch, 3}},               // underruns
		{{OpMatch, 0}, {OpMatch, 4}}, // zero-length op
		{{'Z', 4}},                   // unknown op
	}
	for i, c := range bad {
		if err := c.Validate(a, b); err == nil {
			t.Errorf("bad cigar %d accepted: %s", i, c)
		}
	}
}

func TestExtendRightTraceMatchesPlain(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		n := 10 + rng.Intn(80)
		a := make(seq.Seq, n)
		for i := range a {
			a[i] = seq.Base(rng.Intn(4))
		}
		b := a.Clone()
		for m := 0; m < n/6; m++ {
			b[rng.Intn(n)] = seq.Base(rng.Intn(4))
		}
		x := rng.Intn(30)
		plain := ExtendRight(a, b, sc, x)
		traced, cigar := ExtendRightTrace(a, b, sc, x)
		if plain != traced {
			t.Fatalf("trial %d: trace extension %+v != plain %+v", trial, traced, plain)
		}
		// The transcript covers exactly the extended prefixes and rescores
		// to the reported score.
		if err := cigar.Validate(a[:traced.AExt], b[:traced.BExt]); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cigar.Score(sc) != traced.Score {
			t.Fatalf("trial %d: transcript score %d != %d", trial, cigar.Score(sc), traced.Score)
		}
	}
}

func TestSeedExtendTraceConsistent(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 30 + rng.Intn(60)
		a := make(seq.Seq, n)
		for i := range a {
			a[i] = seq.Base(rng.Intn(4))
		}
		b := a.Clone()
		for m := 0; m < n/8; m++ {
			b[rng.Intn(n)] = seq.Base(rng.Intn(4))
		}
		k := 6
		pos := rng.Intn(n - k)
		plain, err := SeedExtend(a, b, pos, pos, k, sc, 25)
		if err != nil {
			t.Fatal(err)
		}
		traced, cigar, err := SeedExtendTrace(a, b, pos, pos, k, sc, 25)
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Fatalf("trial %d: traced result %+v != plain %+v", trial, traced, plain)
		}
		if err := cigar.Validate(a[traced.AStart:traced.AEnd], b[traced.BStart:traced.BEnd]); err != nil {
			t.Fatalf("trial %d: %v\ncigar=%s", trial, err, cigar)
		}
		if cigar.Score(sc) != traced.Score {
			t.Fatalf("trial %d: transcript score %d != %d", trial, cigar.Score(sc), traced.Score)
		}
	}
}

func TestSeedExtendTraceErrors(t *testing.T) {
	a := seq.MustFromString("ACGTACGT")
	if _, _, err := SeedExtendTrace(a, a, 7, 0, 4, DefaultScoring(), 5); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, _, err := SeedExtendTrace(a, a, 0, 0, 4, Scoring{}, 5); err == nil {
		t.Error("invalid scoring accepted")
	}
}
