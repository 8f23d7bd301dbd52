package seq

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const rangeFASTA = `>r0 first read
ACGT
ACGTN

>r1
GG
>
TTTACG
>r3 tab	separated
CCCC
`

const rangeFASTQ = `@q0 one
ACGTACGT
+
IIIIIIII

@q1
NNNN
+q1
!!!!
@
ACG
+
III
`

// writeTemp writes content (optionally gzipped) and returns the path.
func writeTemp(t *testing.T, name, content string, gz bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var buf bytes.Buffer
	if gz {
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		buf.WriteString(content)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkIndexMatchesParse asserts the index agrees with the full parser.
func checkIndexMatchesParse(t *testing.T, ix *FileIndex, rs *ReadSet) {
	t.Helper()
	if ix.N() != rs.Len() {
		t.Fatalf("index has %d records, parse has %d", ix.N(), rs.Len())
	}
	for i := range rs.Reads {
		r := &rs.Reads[i]
		if int(ix.Lens[i]) != r.Len() {
			t.Errorf("record %d: index len %d, parsed len %d", i, ix.Lens[i], r.Len())
		}
		if ix.Names[i] != r.Name {
			t.Errorf("record %d: index name %q, parsed name %q", i, ix.Names[i], r.Name)
		}
	}
}

func TestIndexMatchesParseFASTA(t *testing.T) {
	ix, err := IndexReader(strings.NewReader(rangeFASTA))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReadFASTA(strings.NewReader(rangeFASTA))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesParse(t, ix, rs)
	if ix.Format != '>' {
		t.Errorf("format = %q", ix.Format)
	}
	// The empty-named ">" header gets the synthetic name of its global slot.
	if rs.Reads[2].Name != "read2" || ix.Names[2] != "read2" {
		t.Errorf("synthetic names: parse %q index %q", rs.Reads[2].Name, ix.Names[2])
	}
}

func TestIndexMatchesParseFASTQ(t *testing.T) {
	ix, err := IndexReader(strings.NewReader(rangeFASTQ))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReadFASTQ(strings.NewReader(rangeFASTQ))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesParse(t, ix, rs)
	if ix.Format != '@' {
		t.Errorf("format = %q", ix.Format)
	}
}

func TestIndexRejectsWhatParserRejects(t *testing.T) {
	for _, bad := range []string{
		"ACGT\n>r0\nACGT\n",  // data before header
		">r0\nACXT\n",        // invalid character
		"@q0\nACGT\n+\n!!\n", // quality length mismatch
		"@q0\nACGT\nIIII\n",  // missing + separator
		"",                   // empty
		"hello\n",            // unknown format
	} {
		if _, err := IndexReader(strings.NewReader(bad)); err == nil {
			t.Errorf("index accepted %q", bad)
		}
		if _, err := LoadReader(strings.NewReader(bad)); err == nil {
			t.Errorf("parser accepted %q", bad)
		}
	}
}

// TestLoadRangeUnion: for several partitions of plain and gzipped inputs,
// the union of the per-range loads must equal the whole-file parse — no
// range may split a record, drop one, or shift an ID.
func TestLoadRangeUnion(t *testing.T) {
	cases := []struct {
		name, content string
		gz            bool
	}{
		{"fasta", rangeFASTA, false},
		{"fasta.gz", rangeFASTA, true},
		{"fastq", rangeFASTQ, false},
		{"fastq.gz", rangeFASTQ, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, tc.name, tc.content, tc.gz)
			ix, err := IndexFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Gzip != tc.gz {
				t.Errorf("Gzip = %v, want %v", ix.Gzip, tc.gz)
			}
			whole, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkIndexMatchesParse(t, ix, whole)
			for _, cuts := range [][]int{{0, ix.N()}, {0, 1, ix.N()}, {0, 2, 3, ix.N()}, {0, 0, ix.N(), ix.N()}} {
				var union []Read
				for i := 0; i+1 < len(cuts); i++ {
					st, err := LoadFileRange(path, ix, cuts[i], cuts[i+1])
					if err != nil {
						t.Fatalf("range [%d,%d): %v", cuts[i], cuts[i+1], err)
					}
					if lo, hi := st.Range(); lo != cuts[i] || hi != cuts[i+1] {
						t.Fatalf("store range [%d,%d), want [%d,%d)", lo, hi, cuts[i], cuts[i+1])
					}
					union = append(union, st.reads...)
				}
				if !reflect.DeepEqual(union, whole.Reads) {
					t.Errorf("cuts %v: union of ranges != whole-file parse", cuts)
				}
			}
		})
	}
}

// TestLoadRangeRandomFiles drives the union property over generated files
// with random record counts, lengths, line wraps and blank lines.
func TestLoadRangeRandomFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := "ACGTN"
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, ">read_%d_%d\n", trial, i)
			l := rng.Intn(200)
			wrap := 1 + rng.Intn(80)
			for off := 0; off < l; off += wrap {
				end := off + wrap
				if end > l {
					end = l
				}
				for j := off; j < end; j++ {
					sb.WriteByte(letters[rng.Intn(len(letters))])
				}
				sb.WriteByte('\n')
				if rng.Intn(4) == 0 {
					sb.WriteByte('\n')
				}
			}
		}
		gz := trial%2 == 1
		path := writeTemp(t, fmt.Sprintf("t%d.fa", trial), sb.String(), gz)
		ix, err := IndexFile(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		whole, err := LoadFile(path)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkIndexMatchesParse(t, ix, whole)
		// Random cut points.
		cuts := []int{0, ix.N()}
		for c := 0; c < rng.Intn(3); c++ {
			cuts = append(cuts, rng.Intn(ix.N()+1))
		}
		sortInts(cuts)
		var union []Read
		for i := 0; i+1 < len(cuts); i++ {
			st, err := LoadFileRange(path, ix, cuts[i], cuts[i+1])
			if err != nil {
				t.Fatalf("trial %d range [%d,%d): %v", trial, cuts[i], cuts[i+1], err)
			}
			union = append(union, st.reads...)
		}
		if !reflect.DeepEqual(union, whole.Reads) {
			t.Errorf("trial %d cuts %v: union != whole parse", trial, cuts)
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestLoadFileRangeBounds(t *testing.T) {
	path := writeTemp(t, "b.fa", rangeFASTA, false)
	ix, err := IndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileRange(path, ix, -1, 2); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := LoadFileRange(path, ix, 2, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := LoadFileRange(path, ix, 0, ix.N()+1); err == nil {
		t.Error("range past end accepted")
	}
	st, err := LoadFileRange(path, ix, 2, 2)
	if err != nil || st.LocalBytes() != 0 {
		t.Errorf("empty range: %v, bytes=%d", err, st.LocalBytes())
	}
}

func TestIndexChecksumAgreement(t *testing.T) {
	p1 := writeTemp(t, "a.fa", rangeFASTA, false)
	p2 := writeTemp(t, "a2.fa", rangeFASTA, true) // same content, gzipped
	ix1, err := IndexFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := IndexFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Checksum() != ix2.Checksum() {
		t.Error("checksum differs for identical content")
	}
	ix3, err := IndexReader(strings.NewReader(">x\nAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Checksum() == ix3.Checksum() {
		t.Error("checksum collides for different content")
	}
	if ix1.TotalBytes() != int64(WireSizeOf(9)+WireSizeOf(2)+WireSizeOf(6)+WireSizeOf(4)) {
		t.Errorf("TotalBytes = %d", ix1.TotalBytes())
	}
}

// FuzzFASTARange: whatever bytes the full parser accepts, the index must
// accept with matching metadata, and every 3-way range split must union
// back to the whole-file parse. Offsets must never split a record.
func FuzzFASTARange(f *testing.F) {
	f.Add([]byte(rangeFASTA), uint8(1), uint8(2))
	f.Add([]byte(rangeFASTQ), uint8(0), uint8(3))
	f.Add([]byte(">a\nACGT\n>b\nGG\n"), uint8(1), uint8(1))
	f.Add([]byte("@a\nAC\n+\nII\n"), uint8(0), uint8(0))
	path := filepath.Join(f.TempDir(), "f.in") // rewritten by every run: a fresh directory each costs more than the run
	f.Fuzz(func(t *testing.T, data []byte, c1, c2 uint8) {
		if len(data) > maxFuzzText {
			return
		}
		whole, perr := LoadReader(bytes.NewReader(data))
		ix, ierr := IndexReader(bytes.NewReader(data))
		if perr != nil {
			if ierr == nil {
				t.Fatalf("parser rejected (%v) but index accepted", perr)
			}
			return
		}
		if ierr != nil {
			t.Fatalf("parser accepted but index rejected: %v", ierr)
		}
		if ix.N() != whole.Len() {
			t.Fatalf("index %d records, parse %d", ix.N(), whole.Len())
		}
		for i := range whole.Reads {
			if int(ix.Lens[i]) != whole.Reads[i].Len() || ix.Names[i] != whole.Reads[i].Name {
				t.Fatalf("record %d metadata mismatch", i)
			}
		}
		// Split [0,N) at two fuzz-chosen cut points and reload via a file.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cuts := []int{0, int(c1) % (ix.N() + 1), int(c2) % (ix.N() + 1), ix.N()}
		sortInts(cuts)
		var union []Read
		for i := 0; i+1 < len(cuts); i++ {
			st, err := LoadFileRange(path, ix, cuts[i], cuts[i+1])
			if err != nil {
				t.Fatalf("range [%d,%d): %v", cuts[i], cuts[i+1], err)
			}
			union = append(union, st.reads...)
		}
		if !reflect.DeepEqual(union, whole.Reads) {
			t.Fatalf("cuts %v: union != whole parse", cuts)
		}
	})
}

// TestLoadRangeDisagreesWithIndex rewrites the file between IndexFile and
// LoadFileRange. Every load that reaches the changed record must fail
// naming it, never panic, and the lines are long enough (40 and more
// letters) that the vector decoder would write past a read that had no
// room left.
func TestLoadRangeDisagreesWithIndex(t *testing.T) {
	line := strings.Repeat("ACGTN", 8)
	fasta := ">r0\n" + line + "\n>r1 grows\n" + line + "\n" + line + "\n>r2\n" + line + "\n>r3\n" + line + "\n"
	fastq := "@r0\n" + line + "\n+\n" + strings.Repeat("I", 40) + "\n@r1\n" + line + "\n+\n" + strings.Repeat("I", 40) +
		"\n@r2\n" + line + "\n+\n" + strings.Repeat("I", 40) + "\n@r3\n" + line + "\n+\n" + strings.Repeat("I", 40) + "\n"
	cases := []struct {
		name, before, after, record string
		rec                         int
	}{
		{"fasta grows", fasta, strings.Replace(fasta, line+"\n>r2", line+"ACGT\n>r2", 1), "record 1 (r1)", 1},
		{"fasta shrinks", fasta, strings.Replace(fasta, line+"\n>r2", line[:30]+"\n>r2", 1), "record 1 (r1)", 1},
		{"fasta invalid byte", fasta, strings.Replace(fasta, ">r2\nACGTNAC", ">r2\nACGTNAX", 1), "record 2 (r2)", 2},
		{"fasta record gone", fasta, strings.Replace(fasta, ">r2\n"+line+"\n", "", 1), "record 2 (r2)", 2},
		{"fastq grows", fastq, strings.Replace(fastq, "@r1\n"+line+"\n+\n"+strings.Repeat("I", 40), "@r1\n"+line+"ACGT\n+\n"+strings.Repeat("I", 44), 1), "record 1 (r1)", 1},
		{"fastq shrinks", fastq, strings.Replace(fastq, "@r1\n"+line+"\n+\n"+strings.Repeat("I", 40), "@r1\n"+line[:33]+"\n+\n"+strings.Repeat("I", 33), 1), "record 1 (r1)", 1},
		{"fastq invalid byte", fastq, strings.Replace(fastq, "@r2\nACGTNAC", "@r2\nACGTNAX", 1), "record 2 (r2)", 2},
		{"fastq record gone", fastq, strings.Replace(fastq, "@r2\n"+line+"\n+\n"+strings.Repeat("I", 40)+"\n", "", 1), "record 2 (r2)", 2},
	}
	for _, tc := range cases {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s gzip=%v", tc.name, gz), func(t *testing.T) {
				if tc.before == tc.after {
					t.Fatal("the rewrite changed nothing")
				}
				path := writeTemp(t, "in", tc.before, gz)
				ix, err := IndexFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := IndexReader(strings.NewReader(tc.after)); err != nil && !strings.Contains(tc.name, "invalid") {
					t.Fatalf("the rewritten file is no valid input: %v", err)
				}
				if err := os.Rename(writeTemp(t, "out", tc.after, gz), path); err != nil {
					t.Fatal(err)
				}
				for _, lo := range []int{0, tc.rec} {
					_, err := LoadFileRange(path, ix, lo, ix.N())
					if err == nil || !strings.Contains(err.Error(), tc.record) {
						t.Errorf("range [%d,%d): error %v, want one naming %s", lo, ix.N(), err, tc.record)
					}
					t.Logf("range [%d,%d): %v", lo, ix.N(), err)
				}
			})
		}
	}
}

// endlessBases is a FASTA stream of one record whose only line is n bases
// with no newline, made as it is read.
type endlessBases struct {
	header bool
	n      int
}

func (e *endlessBases) Read(p []byte) (int, error) {
	if !e.header {
		e.header = true
		return copy(p, ">r\n"), nil
	}
	if e.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), e.n)
	for i := range p[:k] {
		p[i] = 'A'
	}
	e.n -= k
	return k, nil
}

// TestLineLimit: a line past 64 MiB fails with an error, in the index
// pass and in the whole-stream parser; a line past the first 256 KiB
// block but under the limit reads whole.
func TestLineLimit(t *testing.T) {
	if _, err := IndexReader(&endlessBases{n: maxLine + 1}); err == nil || !strings.Contains(err.Error(), "line 2: longer than") {
		t.Errorf("IndexReader on a %d-byte line: %v", maxLine+1, err)
	}
	if _, err := ReadFASTA(&endlessBases{n: maxLine + 1}); err == nil || !strings.Contains(err.Error(), "line 2: longer than") {
		t.Errorf("ReadFASTA on a %d-byte line: %v", maxLine+1, err)
	}
	n := 3<<18 + 17
	ix, err := IndexReader(&endlessBases{n: n})
	if err != nil || ix.N() != 1 || ix.Lens[0] != int32(n) {
		t.Fatalf("IndexReader on a %d-byte line: %v %+v", n, err, ix)
	}
	rs, err := ReadFASTA(&endlessBases{n: n})
	if err != nil || rs.Len() != 1 || rs.Reads[0].Len() != n {
		t.Fatalf("ReadFASTA on a %d-byte line: %v", n, err)
	}
}
