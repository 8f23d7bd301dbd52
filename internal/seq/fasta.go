package seq

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
)

// ReadFASTA parses FASTA records from r into a ReadSet with dense IDs.
// Multi-line sequences are concatenated; blank lines are skipped; invalid
// characters are rejected with a position-bearing error.
func ReadFASTA(r io.Reader) (*ReadSet, error) {
	return readRecords(newLineReader(r, 0), '>')
}

// readRecords parses every record of a stream in the given format into a
// ReadSet: each FASTA line decodes onto the end of one growing buffer, and
// each read gets an exact copy of it.
func readRecords(lr *lineReader, format byte) (*ReadSet, error) {
	rs := &ReadSet{}
	var name string
	var body Seq
	err := lr.walk(format, func(text []byte) error {
		name = headerName(text, len(rs.Reads))
		body = body[:0]
		return nil
	}, func(text []byte) error {
		n := len(body)
		body = slices.Grow(body, len(text))[:n+len(text)]
		if j := decodeBases(body[n:], text); j >= 0 {
			return fmt.Errorf("%s: line %d: invalid character %q", kindOf(format), lr.line, text[j])
		}
		return nil
	}, func() error {
		rs.Reads = append(rs.Reads, Read{ID: ReadID(len(rs.Reads)), Name: name, Seq: append(Seq(nil), body...)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// WriteFASTA writes the read set as FASTA with lines wrapped at width
// characters (width <= 0 means no wrapping).
func WriteFASTA(w io.Writer, rs *ReadSet, width int) error {
	bw := bufio.NewWriter(w)
	for i := range rs.Reads {
		r := &rs.Reads[i]
		if _, err := fmt.Fprintf(bw, ">%s\n", r.Name); err != nil {
			return err
		}
		s := r.Seq
		if width <= 0 {
			width = len(s)
		}
		for off := 0; off < len(s); off += width {
			end := off + width
			if end > len(s) {
				end = len(s)
			}
			for _, b := range s[off:end] {
				if err := bw.WriteByte(b.Char()); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		if len(s) == 0 {
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFASTQ parses FASTQ records (4-line form) into a ReadSet.
// Quality strings are validated for length but discarded: the alignment
// pipeline in this library is quality-agnostic, as in the paper.
func ReadFASTQ(r io.Reader) (*ReadSet, error) {
	return readRecords(newLineReader(r, 0), '@')
}

// LoadFile reads a FASTA or FASTQ file, transparently gunzipping
// (by magic bytes, not extension) and dispatching on the first non-blank
// byte ('>' vs '@').
func LoadFile(path string) (*ReadSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := LoadReader(f)
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return rs, nil
}

// LoadReader is LoadFile on an arbitrary stream: gunzip by magic bytes,
// then dispatch on the first non-blank line ('>' FASTA vs '@' FASTQ).
func LoadReader(r io.Reader) (*ReadSet, error) {
	src, _, err := gunzip(r)
	if err != nil {
		return nil, err
	}
	lr := newLineReader(src, 0)
	format, err := lr.format()
	if err != nil {
		return nil, err
	}
	return readRecords(lr, format)
}
