package kmer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnbody/internal/seq"
)

func TestEncodeDecode(t *testing.T) {
	s := seq.MustFromString("ACGTACGTACGTACGTA")
	for k := 1; k <= len(s); k++ {
		c := Encode(s, 0, k)
		got := Decode(c, k).String()
		want := s[:k].String()
		if got != want {
			t.Errorf("k=%d: Decode(Encode) = %q, want %q", k, got, want)
		}
	}
}

// Property: Canonical is strand-invariant: canon(x) == canon(revcomp(x)).
func TestCanonicalStrandInvariance(t *testing.T) {
	f := func(raw []byte, kraw uint8) bool {
		k := int(kraw%MaxK) + 1
		if len(raw) < k {
			return true
		}
		s := make(seq.Seq, k)
		for i := 0; i < k; i++ {
			s[i] = seq.Base(raw[i] % 4)
		}
		rc := s.ReverseComplement()
		return Canonical(Encode(s, 0, k), k) == Canonical(Encode(rc, 0, k), k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(MaxK)
		c := Code(rng.Uint64()) & (Code(1)<<(2*uint(k)) - 1)
		canon := Canonical(c, k)
		if Canonical(canon, k) != canon {
			t.Fatalf("Canonical not idempotent for k=%d c=%x", k, c)
		}
		if canon != c && canon != revComp(c, k) {
			t.Fatalf("Canonical(%x) = %x is neither input nor its revcomp", c, canon)
		}
	}
}

func TestScanBasic(t *testing.T) {
	r := seq.Read{ID: 0, Seq: seq.MustFromString("ACGTA")}
	var poss []int
	var codes []Code
	if err := Scan(&r, 3, func(p int, c Code, _ bool) { poss = append(poss, p); codes = append(codes, c) }); err != nil {
		t.Fatal(err)
	}
	if len(poss) != 3 || poss[0] != 0 || poss[1] != 1 || poss[2] != 2 {
		t.Errorf("positions = %v, want [0 1 2]", poss)
	}
	// ACG canonical: ACG=000110 vs CGT revcomp... compute by hand:
	// ACG code = 0b000110 = 6; revcomp(ACG) = CGT = 0b011011 = 27; canon = 6.
	if codes[0] != 6 {
		t.Errorf("canon(ACG) = %d, want 6", codes[0])
	}
}

func TestScanSkipsN(t *testing.T) {
	r := seq.Read{ID: 0, Seq: seq.MustFromString("ACGNACGT")}
	var poss []int
	if err := Scan(&r, 3, func(p int, _ Code, _ bool) { poss = append(poss, p) }); err != nil {
		t.Fatal(err)
	}
	// Windows containing index 3 (N) are skipped: valid are 0 and 4,5.
	want := []int{0, 4, 5}
	if len(poss) != len(want) {
		t.Fatalf("positions = %v, want %v", poss, want)
	}
	for i := range want {
		if poss[i] != want[i] {
			t.Fatalf("positions = %v, want %v", poss, want)
		}
	}
}

func TestScanShortAndErrors(t *testing.T) {
	r := seq.Read{Seq: seq.MustFromString("AC")}
	n := 0
	if err := Scan(&r, 3, func(int, Code, bool) { n++ }); err != nil || n != 0 {
		t.Errorf("short read: n=%d err=%v", n, err)
	}
	if err := Scan(&r, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if err := Scan(&r, MaxK+1, nil); err == nil {
		t.Error("k>MaxK accepted")
	}
}

// Property: CountSet matches a brute-force string-based count.
func TestCountSetVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		var seqs []seq.Seq
		for i := 0; i < 5; i++ {
			n := rng.Intn(40)
			s := make(seq.Seq, n)
			for j := range s {
				s[j] = seq.Base(rng.Intn(5)) // includes N
			}
			seqs = append(seqs, s)
		}
		rs := seq.NewReadSet(seqs)
		got, err := CountSet(rs, k)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, s := range seqs {
			for i := 0; i+k <= len(s); i++ {
				win := s[i : i+k]
				if win.CountN() > 0 {
					continue
				}
				fwd := win.String()
				rc := win.ReverseComplement().String()
				key := fwd
				if rc < fwd {
					key = rc
				}
				want[key]++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distinct kmers, want %d", trial, len(got), len(want))
		}
		for c, n := range got {
			fwd := Decode(c, k).String()
			rc := Decode(c, k).ReverseComplement().String()
			key := fwd
			if rc < fwd {
				key = rc
			}
			// Note: canonical code order (numeric) coincides with string
			// order because base codes are alphabet-ordered.
			if want[key] != n {
				t.Fatalf("trial %d: kmer %s count %d, want %d", trial, key, n, want[key])
			}
		}
	}
}

func TestIndexFiltersByWindow(t *testing.T) {
	// Read set where "AAAA" appears on 3 reads and "CCCC" on 1.
	rs := seq.NewReadSet([]seq.Seq{
		seq.MustFromString("AAAAG"),
		seq.MustFromString("GAAAA"),
		seq.MustFromString("AAAAC"),
		seq.MustFromString("CCCCG"),
	})
	idx, err := Index(rs, 4, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	aaaa := Canonical(Encode(seq.MustFromString("AAAA"), 0, 4), 4)
	cccc := Canonical(Encode(seq.MustFromString("CCCC"), 0, 4), 4)
	if len(idx[aaaa]) != 3 {
		t.Errorf("AAAA occurrences = %d, want 3", len(idx[aaaa]))
	}
	if _, ok := idx[cccc]; ok {
		t.Errorf("CCCC (count 1) should be filtered by lo=2")
	}
	// With hi=2, AAAA (count 3) must be filtered too.
	idx, err = Index(rs, 4, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx[aaaa]; ok {
		t.Errorf("AAAA (count 3) should be filtered by hi=2")
	}
}

func TestIndexKeepPerRead(t *testing.T) {
	// "ACGT" occurs twice within read 0 and once in read 1 (count 3).
	rs := seq.NewReadSet([]seq.Seq{
		seq.MustFromString("ACGTTACGT"),
		seq.MustFromString("ACGTC"),
	})
	code := Canonical(Encode(seq.MustFromString("ACGT"), 0, 4), 4)
	idx, err := Index(rs, 4, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx[code]); got != 2 {
		t.Errorf("keepPerRead=1: occurrences = %d, want 2 (one per read)", got)
	}
	idx, err = Index(rs, 4, 2, 10, 0) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx[code]); got != 3 {
		t.Errorf("keepPerRead=0: occurrences = %d, want 3", got)
	}
}

func TestSpectrum(t *testing.T) {
	h := map[Code]int{1: 2, 2: 2, 3: 5}
	sp := Spectrum(h)
	if len(sp) != 2 || sp[0] != [2]int{2, 2} || sp[1] != [2]int{5, 1} {
		t.Errorf("Spectrum = %v", sp)
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.7}, {30, 0.05}} {
		sum := 0.0
		for m := 0; m <= tc.n; m++ {
			sum += binomPMF(tc.n, m, tc.p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("binomPMF(n=%d,p=%v) sums to %v", tc.n, tc.p, sum)
		}
	}
	if binomPMF(5, 0, 0) != 1 || binomPMF(5, 3, 0) != 0 {
		t.Error("p=0 edge cases wrong")
	}
	if binomPMF(5, 5, 1) != 1 || binomPMF(5, 3, 1) != 0 {
		t.Error("p=1 edge cases wrong")
	}
}

func TestReliableWindow(t *testing.T) {
	// E. coli 30x with 15% error, k=17: p=(0.85)^17≈0.063, mean copies
	// ≈1.9 — Hi should be small (single digits).
	lo, hi := ReliableWindow(30, 0.15, 17, 1e-4)
	if lo != 2 {
		t.Errorf("lo = %d, want 2", lo)
	}
	if hi < 3 || hi > 12 {
		t.Errorf("hi = %d, want single-digit-ish for 30x/15%%", hi)
	}
	// CCS (low error): p≈0.99^17≈0.84, coverage 30 → mean ≈25, Hi well
	// above the mean but below ~2x mean.
	_, hiCCS := ReliableWindow(30, 0.01, 17, 1e-4)
	if hiCCS <= hi {
		t.Errorf("lower error must raise the window: hiCCS=%d <= hi=%d", hiCCS, hi)
	}
	if hiCCS < 25 || hiCCS > 45 {
		t.Errorf("hiCCS = %d, want ≈ 30-40", hiCCS)
	}
	// Monotonic in coverage.
	_, hi100 := ReliableWindow(100, 0.15, 17, 1e-4)
	if hi100 <= hi {
		t.Errorf("higher coverage must raise the window: hi100=%d <= hi=%d", hi100, hi)
	}
	// Degenerate inputs stay sane.
	lo, hi = ReliableWindow(0.4, 0.9, 17, 0)
	if lo != 2 || hi < lo {
		t.Errorf("degenerate window = [%d,%d]", lo, hi)
	}
}

// Property: the rolling encoder reports, for every N-free window and no
// other, exactly Canonical(Encode(window)) — for every k, across N runs
// that restart it, on reads shorter than k, and on even-k palindromes,
// whose canonical code is the forward code and so must report rc false.
func TestScanMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type window struct {
		pos   int
		canon Code
		rc    bool
	}
	for k := 1; k <= MaxK; k++ {
		var reads []seq.Seq
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3 * k, 200} {
			s := make(seq.Seq, n)
			for i := range s {
				s[i] = seq.Base(rng.Intn(4))
			}
			reads = append(reads, s)
			if n > k { // the same read with N runs, one of them at the very start
				withN := append(seq.Seq(nil), s...)
				for at := 0; at < n; at += 1 + rng.Intn(2*k+2) {
					for j := at; j < n && j < at+1+rng.Intn(3); j++ {
						withN[j] = seq.N
					}
				}
				reads = append(reads, withN)
			}
		}
		palindromes := 0
		if k%2 == 0 { // half + revcomp(half), behind an N so the encoder restarts into it
			half := make(seq.Seq, k/2)
			for i := range half {
				half[i] = seq.Base(rng.Intn(4))
			}
			pal := append(append(seq.Seq{seq.N}, half...), half.ReverseComplement()...)
			reads = append(reads, append(pal, seq.Base(rng.Intn(4))))
			palindromes = 1
		}
		for _, s := range reads {
			var want []window
			for i := 0; i+k <= len(s); i++ {
				free := true
				for _, b := range s[i : i+k] {
					free = free && b < seq.N
				}
				if free {
					fwd := Encode(s, i, k)
					want = append(want, window{i, Canonical(fwd, k), Canonical(fwd, k) != fwd})
					if fwd == revComp(fwd, k) {
						palindromes--
					}
				}
			}
			var got []window
			if err := Scan(&seq.Read{Seq: s}, k, func(pos int, c Code, rc bool) { got = append(got, window{pos, c, rc}) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d read %v: %d windows, want %d", k, s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d read %v: window %d = %+v, want %+v", k, s, i, got[i], want[i])
				}
			}
		}
		if palindromes > 0 {
			t.Fatalf("k=%d: the palindrome fixture holds no palindromic window", k)
		}
	}
}
