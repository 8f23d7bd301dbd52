package seq

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// maxFuzzText caps the input of the FASTA and FASTQ parser targets, enough
// for a few records and a wrapped line: the engine minimizes a new input
// in time quadratic in its length, and each run parses, writes and reloads
// its input, so longer inputs stalled the run at 0 execs/s.
const maxFuzzText = 128

// FuzzFASTA: any input either parses or errors — never panics — and every
// successfully parsed set survives a write→parse round trip byte-exactly,
// both plain and through the gzip path cmd/dibella uses.
func FuzzFASTA(f *testing.F) {
	f.Add([]byte(">r1\nACGT\n>r2\nNNAC\n"))
	f.Add([]byte(">a desc ignored\nAC\nGT\n\n>b\n"))
	f.Add([]byte(">\nACGT\n"))
	f.Add([]byte("ACGT\n"))      // data before header
	f.Add([]byte(">x\nACGT!\n")) // invalid character
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzText {
			return
		}
		rs, err := ReadFASTA(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFASTA(&out, rs, 60); err != nil {
			t.Fatalf("WriteFASTA: %v", err)
		}
		rs2, err := ReadFASTA(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written FASTA failed: %v\n%q", err, out.Bytes())
		}
		compareSets(t, rs, rs2)

		// The same bytes gunzip-transparently through LoadReader.
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(out.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rs.Reads) == 0 {
			return // LoadReader rejects empty input by design
		}
		rs3, err := LoadReader(bytes.NewReader(gz.Bytes()))
		if err != nil {
			t.Fatalf("LoadReader(gzip) failed: %v", err)
		}
		compareSets(t, rs, rs3)
	})
}

// FuzzFASTQ: no panics; parsed records re-emitted as 4-line FASTQ survive a
// LoadReader round trip (which also exercises the '@' format dispatch).
func FuzzFASTQ(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n"))
	f.Add([]byte("@r1 desc\nACGTN\n+r1\n!!!!!\n@r2\nAC\n+\nII\n"))
	f.Add([]byte("@r1\nACGT\n+\nIII\n")) // quality length mismatch
	f.Add([]byte("@r1\nACGT\n"))         // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzText {
			return
		}
		rs, err := ReadFASTQ(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(rs.Reads) == 0 {
			return
		}
		var out bytes.Buffer
		for i := range rs.Reads {
			r := &rs.Reads[i]
			out.WriteByte('@')
			out.WriteString(r.Name)
			out.WriteByte('\n')
			out.WriteString(r.Seq.String())
			out.WriteString("\n+\n")
			out.Write(bytes.Repeat([]byte{'I'}, len(r.Seq)))
			out.WriteByte('\n')
		}
		rs2, err := LoadReader(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written FASTQ failed: %v\n%q", err, out.Bytes())
		}
		compareSets(t, rs, rs2)
	})
}

func compareSets(t *testing.T, a, b *ReadSet) {
	t.Helper()
	if len(a.Reads) != len(b.Reads) {
		t.Fatalf("round trip changed read count: %d -> %d", len(a.Reads), len(b.Reads))
	}
	for i := range a.Reads {
		ra, rb := &a.Reads[i], &b.Reads[i]
		if ra.ID != rb.ID || ra.Name != rb.Name {
			t.Fatalf("read %d: identity changed: (%d,%q) -> (%d,%q)", i, ra.ID, ra.Name, rb.ID, rb.Name)
		}
		if ra.Seq.String() != rb.Seq.String() {
			t.Fatalf("read %d (%s): sequence changed: %q -> %q", i, ra.Name, ra.Seq, rb.Seq)
		}
	}
}
