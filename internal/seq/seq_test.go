package seq

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseFromChar(t *testing.T) {
	cases := []struct {
		c    byte
		want Base
		ok   bool
	}{
		{'A', A, true}, {'a', A, true},
		{'C', C, true}, {'c', C, true},
		{'G', G, true}, {'g', G, true},
		{'T', T, true}, {'t', T, true},
		{'N', N, true}, {'n', N, true},
		{'U', T, true}, {'u', T, true},
		{'X', 0, false}, {'-', 0, false}, {'>', 0, false}, {0, 0, false},
	}
	for _, tc := range cases {
		got, ok := BaseFromChar(tc.c)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BaseFromChar(%q) = (%v,%v), want (%v,%v)", tc.c, got, ok, tc.want, tc.ok)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A, N: N}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("Complement(%c) = %c, want %c", b.Char(), got.Char(), want.Char())
		}
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	const in = "ACGTNACGT"
	s, err := FromString(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("ACGX"); err == nil {
		t.Error("FromString(ACGX) succeeded, want error")
	}
	if !strings.Contains(mustErr(t, "ACGX").Error(), "position 3") {
		t.Errorf("error should name position 3: %v", mustErr(t, "ACGX"))
	}
}

func mustErr(t *testing.T, s string) error {
	t.Helper()
	_, err := FromString(s)
	if err == nil {
		t.Fatalf("FromString(%q) succeeded, want error", s)
	}
	return err
}

func TestReverseComplementKnown(t *testing.T) {
	s := MustFromString("AACGTN")
	want := "NACGTT"
	if got := s.ReverseComplement().String(); got != want {
		t.Errorf("revcomp(AACGTN) = %q, want %q", got, want)
	}
}

func randSeq(r *rand.Rand, n int, withN bool) Seq {
	s := make(Seq, n)
	hi := 4
	if withN {
		hi = 5
	}
	for i := range s {
		s[i] = Base(r.Intn(hi))
	}
	return s
}

// Property: reverse complement is an involution.
func TestReverseComplementInvolution(t *testing.T) {
	f := func(data []byte) bool {
		s := make(Seq, len(data))
		for i, d := range data {
			s[i] = Base(d % NumBases)
		}
		return reflect.DeepEqual(s.ReverseComplement().ReverseComplement(), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCountN(t *testing.T) {
	if got := MustFromString("ANNA").CountN(); got != 2 {
		t.Errorf("CountN = %d, want 2", got)
	}
	if got := (Seq{}).CountN(); got != 0 {
		t.Errorf("CountN(empty) = %d, want 0", got)
	}
}

func TestNewReadSetDenseIDs(t *testing.T) {
	rs := NewReadSet([]Seq{MustFromString("ACGT"), MustFromString("TTTT"), MustFromString("A")})
	for i := range rs.Reads {
		if rs.Reads[i].ID != ReadID(i) {
			t.Errorf("read %d has ID %d", i, rs.Reads[i].ID)
		}
	}
	if rs.Get(1).Seq.String() != "TTTT" {
		t.Errorf("Get(1) wrong read")
	}
	if rs.TotalBases() != 9 {
		t.Errorf("TotalBases = %d, want 9", rs.TotalBases())
	}
}

func TestStats(t *testing.T) {
	// Lengths 2, 4, 6, 8: total 20, half 10. From longest down: 8, then
	// 8+6=14 >= 10 so N50 = 6.
	rs := NewReadSet([]Seq{
		randSeq(rand.New(rand.NewSource(1)), 4, false),
		randSeq(rand.New(rand.NewSource(2)), 8, false),
		randSeq(rand.New(rand.NewSource(3)), 2, false),
		randSeq(rand.New(rand.NewSource(4)), 6, false),
	})
	st := rs.ComputeStats()
	if st.Count != 4 || st.TotalBases != 20 || st.MinLen != 2 || st.MaxLen != 8 {
		t.Errorf("stats basics wrong: %+v", st)
	}
	if st.MeanLen != 5 {
		t.Errorf("MeanLen = %v, want 5", st.MeanLen)
	}
	if st.N50 != 6 {
		t.Errorf("N50 = %d, want 6", st.N50)
	}
	if st.MedianLen != 6 { // sorted [2 4 6 8], index 2
		t.Errorf("MedianLen = %d, want 6", st.MedianLen)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := (&ReadSet{}).ComputeStats()
	if st.Count != 0 || st.TotalBases != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestWireSize(t *testing.T) {
	r := Read{ID: 7, Seq: MustFromString("ACGTN")}
	if r.WireSize() != 13 {
		t.Errorf("WireSize = %d, want 13", r.WireSize())
	}
	if WireSizeOf(5) != 13 {
		t.Errorf("WireSizeOf(5) = %d, want 13", WireSizeOf(5))
	}
	buf := AppendWire(nil, &r)
	if len(buf) != r.WireSize() {
		t.Errorf("encoded size %d != WireSize %d", len(buf), r.WireSize())
	}
}
