package seq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The oracle for the input path: the parsers as they stood before the one
// line reader and the vector decoder, a bufio.Scanner per parser and one
// table lookup per base. Only their dispatch differs: it takes the format
// from the first non-blank line trimmed by bytes.TrimSpace, as the index
// pass always did (the old LoadReader skipped only '\n', '\r', ' ' and
// '\t' bytes, so a leading '\v' or U+0085 split the two).

func oracleLoad(data []byte) ([]Read, error) {
	var r io.Reader = bytes.NewReader(data)
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		data = plain
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		switch text[0] {
		case '>':
			return oracleFASTA(bytes.NewReader(data))
		case '@':
			return oracleFASTQ(bytes.NewReader(data))
		default:
			return nil, fmt.Errorf("unrecognised format (starts with %q)", text[0])
		}
	}
	return nil, fmt.Errorf("empty input")
}

func oracleFASTA(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<26) // grown as a line needs, up to the same limit
	var out []Read
	var name string
	var body []Base
	var inRecord bool
	line := 0
	flush := func() {
		if inRecord {
			out = append(out, Read{ID: ReadID(len(out)), Name: name, Seq: append(Seq(nil), body...)})
			body = body[:0]
		}
	}
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			flush()
			inRecord = true
			name = oracleName(string(text[1:]), len(out))
			continue
		}
		if !inRecord {
			return nil, fmt.Errorf("fasta: line %d: sequence data before first header", line)
		}
		for i := 0; i < len(text); i++ {
			b, ok := BaseFromChar(text[i])
			if !ok {
				return nil, fmt.Errorf("fasta: line %d: invalid character %q", line, text[i])
			}
			body = append(body, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fasta: %w", err)
	}
	flush()
	return out, nil
}

func oracleFASTQ(r io.Reader) ([]Read, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<26) // grown as a line needs, up to the same limit
	var out []Read
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			t := strings.TrimSpace(sc.Text())
			if t != "" {
				return t, true
			}
		}
		return "", false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if !strings.HasPrefix(hdr, "@") {
			return nil, fmt.Errorf("fastq: line %d: expected @header, got %q", line, hdr)
		}
		body, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing sequence)", line)
		}
		plus, ok := next()
		if !ok || !strings.HasPrefix(plus, "+") {
			return nil, fmt.Errorf("fastq: line %d: expected + separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing quality)", line)
		}
		if len(qual) != len(body) {
			return nil, fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", line, len(qual), len(body))
		}
		s := make(Seq, len(body))
		for i := 0; i < len(body); i++ {
			b, ok := BaseFromChar(body[i])
			if !ok {
				return nil, fmt.Errorf("fastq: line %d: invalid character %q", line, body[i])
			}
			s[i] = b
		}
		out = append(out, Read{ID: ReadID(len(out)), Name: oracleName(hdr[1:], len(out)), Seq: s})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fastq: %w", err)
	}
	return out, nil
}

func oracleName(s string, id int) string {
	if fs := strings.Fields(s); len(fs) > 0 {
		return fs[0]
	}
	return fmt.Sprintf("read%d", id)
}

// FuzzLoadDiff checks IndexFile plus LoadFileRange, and LoadReader, against
// the oracle: an input one accepts the other accepts, with the same reads,
// names and lengths, plain or gzipped, whatever the split into ranges.
func FuzzLoadDiff(f *testing.F) {
	f.Add([]byte(rangeFASTA), false, uint8(1), uint8(3))
	f.Add([]byte(rangeFASTQ), true, uint8(0), uint8(2))
	f.Add([]byte(">r1 a\r\nACGT\r\nacgu\r\n\r\n>r2\r\nNNNN\r\n"), false, uint8(1), uint8(1))
	f.Add([]byte("\u0085\n> r1\u0085x\nACGT \n\u0085ACG\n>\nTT\n"), true, uint8(0), uint8(1))
	f.Add([]byte("\n\n>\n\n>\nAC\n\n>r\n"), false, uint8(2), uint8(1))
	f.Add([]byte("\v>r\nAC\n"), false, uint8(0), uint8(0))
	f.Add([]byte("@q\r\nACGT\r\n+\r\n@@@@\r\n@\nA\n+\n!\n"), true, uint8(1), uint8(2))
	f.Add([]byte(">r\nAC\u0085GT\n"), false, uint8(0), uint8(1))
	path := filepath.Join(f.TempDir(), "in") // rewritten by every run: a fresh directory each costs more than the run
	f.Fuzz(func(t *testing.T, data []byte, gz bool, c1, c2 uint8) {
		if len(data) > maxFuzzText {
			return
		}
		want, werr := oracleLoad(data)
		if rs, err := LoadReader(bytes.NewReader(data)); (err == nil) != (werr == nil) {
			t.Fatalf("LoadReader error %v, oracle %v", err, werr)
		} else if err == nil && !reflect.DeepEqual(rs.Reads, want) {
			t.Fatalf("LoadReader reads differ from the oracle's")
		}
		if gz && len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			gz = false // gzip in gzip is text to the readers, not to the oracle
		}
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := IndexFile(path)
		if (err == nil) != (werr == nil) {
			t.Fatalf("IndexFile error %v, oracle %v", err, werr)
		}
		if err != nil {
			return
		}
		if ix.Gzip != gz {
			t.Fatalf("Gzip %v, want %v", ix.Gzip, gz)
		}
		cuts := []int{0, int(c1) % (ix.N() + 1), int(c2) % (ix.N() + 1), ix.N()}
		sortInts(cuts)
		var got []Read
		for i := 0; i+1 < len(cuts); i++ {
			st, err := LoadFileRange(path, ix, cuts[i], cuts[i+1])
			if err != nil {
				t.Fatalf("range [%d,%d): %v", cuts[i], cuts[i+1], err)
			}
			got = append(got, st.reads...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cuts %v: ranges give %v, oracle %v", cuts, got, want)
		}
	})
}
