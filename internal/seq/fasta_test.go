package seq

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadFASTABasic(t *testing.T) {
	in := ">r1 comment here\nACGT\nACG\n\n>r2\nNNNN\n"
	rs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("got %d reads, want 2", rs.Len())
	}
	if rs.Reads[0].Name != "r1" || rs.Reads[0].Seq.String() != "ACGTACG" {
		t.Errorf("read 0 = %q %q", rs.Reads[0].Name, rs.Reads[0].Seq)
	}
	if rs.Reads[1].Name != "r2" || rs.Reads[1].Seq.String() != "NNNN" {
		t.Errorf("read 1 = %q %q", rs.Reads[1].Name, rs.Reads[1].Seq)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadFASTA(strings.NewReader(">r\nAC!T\n")); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var seqs []Seq
	for i := 0; i < 25; i++ {
		seqs = append(seqs, randSeq(rng, 1+rng.Intn(300), true))
	}
	rs := NewReadSet(seqs)
	for _, width := range []int{0, 1, 7, 80, 10000} {
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, rs, width); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if got.Len() != rs.Len() {
			t.Fatalf("width %d: got %d reads, want %d", width, got.Len(), rs.Len())
		}
		for i := range rs.Reads {
			if !reflect.DeepEqual(got.Reads[i].Seq, rs.Reads[i].Seq) {
				t.Errorf("width %d: read %d differs", width, i)
			}
			if got.Reads[i].Name != rs.Reads[i].Name {
				t.Errorf("width %d: read %d name %q != %q", width, i, got.Reads[i].Name, rs.Reads[i].Name)
			}
		}
	}
}

func TestReadFASTQ(t *testing.T) {
	in := "@q1 desc\nACGT\n+\nIIII\n@q2\nNN\n+q2\n!!\n"
	rs, err := ReadFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("got %d reads, want 2", rs.Len())
	}
	if rs.Reads[0].Name != "q1" || rs.Reads[0].Seq.String() != "ACGT" {
		t.Errorf("read 0 = %+v", rs.Reads[0])
	}
	if rs.Reads[1].Seq.String() != "NN" {
		t.Errorf("read 1 = %+v", rs.Reads[1])
	}
}

func TestReadFASTQErrors(t *testing.T) {
	cases := []string{
		"ACGT\n+\nIIII\n",     // no @ header
		"@q\nACGT\n+\nIII\n",  // quality length mismatch
		"@q\nACGT\nIIII\n",    // missing + line
		"@q\nACGT\n+\n",       // truncated quality
		"@q\nACGT\n",          // truncated record
		"@q\nAXGT\n+\nIIII\n", // invalid base
	}
	for _, in := range cases {
		if _, err := ReadFASTQ(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFASTQ(%q) succeeded, want error", in)
		}
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	fa := filepath.Join(dir, "x.fa")
	if err := os.WriteFile(fa, []byte("\n  \n>r\nACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadFile(fa)
	if err != nil || rs.Len() != 1 {
		t.Fatalf("LoadFile(fasta) = %v, %v", rs, err)
	}
	fq := filepath.Join(dir, "x.fq")
	if err := os.WriteFile(fq, []byte("@r\nACGT\n+\nIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err = LoadFile(fq)
	if err != nil || rs.Len() != 1 {
		t.Fatalf("LoadFile(fastq) = %v, %v", rs, err)
	}
	bad := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(bad, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("LoadFile on junk succeeded")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadFile on missing file succeeded")
	}
}

func TestWireRoundTrip(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var buf []byte
		var want []Read
		for i := 0; i < 40; i++ {
			r := Read{ID: ReadID(rng.Intn(1000)), Seq: randSeq(rng, rng.Intn(200), true)}
			want = append(want, r)
			buf = AppendWire(buf, &r)
		}
		got, err := DecodeWireAll(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d reads, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].Seq, want[i].Seq) {
				t.Errorf("read %d mismatch", i)
			}
		}
	})
}

func TestWireErrors(t *testing.T) {
	if _, _, err := DecodeWire([]byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	r := Read{ID: 1, Seq: MustFromString("ACGT")}
	buf := AppendWire(nil, &r)
	if _, _, err := DecodeWire(buf[:len(buf)-1]); err == nil {
		t.Error("short body accepted")
	}
	buf2 := append([]byte(nil), buf...)
	buf2[9] = 99 // corrupt a base code
	if _, _, err := DecodeWire(buf2); err == nil {
		t.Error("invalid base code accepted")
	}
	if _, err := DecodeWireAll(buf[:len(buf)-1]); err == nil {
		t.Error("DecodeWireAll on truncated buffer succeeded")
	}
}

func TestLoadFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fa.gz")
	var raw bytes.Buffer
	gz := gzip.NewWriter(&raw)
	if _, err := gz.Write([]byte(">r1\nACGTACGT\n>r2\nNNNN\n")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Reads[0].Seq.String() != "ACGTACGT" {
		t.Fatalf("gzip load = %v, %v", rs.Len(), err)
	}
}
