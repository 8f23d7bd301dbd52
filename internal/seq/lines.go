package seq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"unicode"
)

// maxLine is the longest line the FASTA and FASTQ readers take, its
// newline included: 64 MiB.
const maxLine = 1 << 26

// lineReader is the one line splitter under every FASTA and FASTQ reader:
// the index pass, the range loads and the whole-stream parsers. It reads
// the stream in blocks of 256 KiB (a longer line grows the buffer, up to
// maxLine), splits them with bytes.IndexByte, and yields the non-blank
// lines trimmed as bytes.TrimSpace trims them, each with its 1-based line
// number and the stream offset of its first byte.
type lineReader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read and not yet split
	base     int64 // stream offset of buf[0]
	eof      bool
	again    bool  // next returns the current line once more
	err      error // what ended the stream early: a read error or an overlong line

	text []byte // the current line, trimmed; valid until the next call of next
	off  int64  // stream offset of the current line
	line int    // number of the current line, blank lines counted, 1-based from where reading began
}

// newLineReader reads r, whose first byte sits at offset off of the stream.
func newLineReader(r io.Reader, off int64) *lineReader {
	return &lineReader{r: r, buf: make([]byte, 1<<18), base: off}
}

// next moves to the next non-blank line and reports whether there is one;
// after false, err says whether the stream ended early.
func (lr *lineReader) next() bool {
	if lr.again {
		lr.again = false
		return true
	}
	for {
		i := bytes.IndexByte(lr.buf[lr.pos:lr.end], '\n')
		if i < 0 {
			if !lr.eof {
				if !lr.fill() {
					return false
				}
				continue
			}
			if lr.pos == lr.end {
				return false
			}
			i = lr.end - lr.pos
		}
		raw := lr.buf[lr.pos : lr.pos+i]
		lr.off = lr.base + int64(lr.pos)
		lr.pos = min(lr.pos+i+1, lr.end)
		lr.line++
		if t := trimSpace(raw); len(t) > 0 {
			lr.text = t
			return true
		}
	}
}

// unread makes the next call of next return the current line again.
func (lr *lineReader) unread() { lr.again = true }

// fill moves the unsplit bytes to the front of the buffer, doubling it
// when they fill it, and reads more of the stream after them.
func (lr *lineReader) fill() bool {
	lr.base += int64(lr.pos)
	lr.end = copy(lr.buf, lr.buf[lr.pos:lr.end])
	lr.pos = 0
	if lr.end == len(lr.buf) {
		if len(lr.buf) >= maxLine {
			lr.err = fmt.Errorf("line %d: longer than %d bytes", lr.line+1, maxLine)
			return false
		}
		lr.buf = append(lr.buf, make([]byte, min(len(lr.buf), maxLine-len(lr.buf)))...)
	}
	n, err := lr.r.Read(lr.buf[lr.end:])
	lr.end += n
	switch {
	case err == io.EOF:
		lr.eof = true
	case err != nil:
		lr.err = err
		return false
	}
	return true
}

// trimSpace is bytes.TrimSpace behind a fast check: a line that starts
// and ends with a printable ASCII byte has nothing to trim.
func trimSpace(b []byte) []byte {
	if n := len(b); n > 0 && b[0]-'!' < 0x80-'!' && b[n-1]-'!' < 0x80-'!' {
		return b
	}
	return bytes.TrimSpace(b)
}

// format reads the first non-blank line, leaves it unread, and returns its
// first byte: '>' for FASTA or '@' for FASTQ.
func (lr *lineReader) format() (byte, error) {
	if !lr.next() {
		if lr.err != nil {
			return 0, lr.err
		}
		return 0, errors.New("empty input")
	}
	lr.unread()
	if c := lr.text[0]; c != '>' && c != '@' {
		return 0, fmt.Errorf("unrecognised format (starts with %q)", c)
	}
	return lr.text[0], nil
}

// errStop ends a walk early without an error.
var errStop = errors.New("stop")

// walk visits the records of a stream in the given format ('>' FASTA, '@'
// FASTQ) from the next line on: head sees each header line, put each
// sequence line (the lines of a FASTA record, the one line of a FASTQ
// record), done the end of each record. Each sees lr's current line, so
// their errors can name it; errStop from done ends the walk cleanly. walk
// itself checks the layout: a FASTA stream starts with a header; a FASTQ
// record is a header, a sequence, a '+' line, and a quality line as long
// as the sequence.
func (lr *lineReader) walk(format byte, head, put func(text []byte) error, done func() error) error {
	kind := kindOf(format)
	// ended is err, unless the stream ended early: then it is why.
	ended := func(err error) error {
		if lr.err != nil {
			return fmt.Errorf("%s: %w", kind, lr.err)
		}
		return err
	}
	more := lr.next()
	for more {
		switch {
		case lr.text[0] == format:
		case format == '>':
			return fmt.Errorf("fasta: line %d: sequence data before first header", lr.line)
		default:
			return fmt.Errorf("fastq: line %d: expected @header, got %q", lr.line, lr.text)
		}
		if err := head(lr.text); err != nil {
			return err
		}
		if format == '>' {
			for more = lr.next(); more && lr.text[0] != '>'; more = lr.next() {
				if err := put(lr.text); err != nil {
					return err
				}
			}
		} else {
			if !lr.next() {
				return ended(fmt.Errorf("fastq: line %d: truncated record (missing sequence)", lr.line))
			}
			n := len(lr.text)
			if err := put(lr.text); err != nil {
				return err
			}
			if !lr.next() || lr.text[0] != '+' {
				return ended(fmt.Errorf("fastq: line %d: expected + separator", lr.line))
			}
			if !lr.next() {
				return ended(fmt.Errorf("fastq: line %d: truncated record (missing quality)", lr.line))
			}
			if len(lr.text) != n {
				return fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", lr.line, len(lr.text), n)
			}
			more = lr.next()
		}
		if err := done(); err == errStop {
			return nil
		} else if err != nil {
			return err
		}
	}
	return ended(nil)
}

// kindOf names a format byte in errors.
func kindOf(format byte) string {
	if format == '@' {
		return "fastq"
	}
	return "fasta"
}

// headerName is the name of the record whose header line is text: the
// first field after the '>' or '@', or "read<id>" when there is none.
func headerName(text []byte, id int) string {
	if f := firstField(text[1:]); len(f) > 0 {
		return string(f)
	}
	return fmt.Sprintf("read%d", id)
}

// firstField returns the first field of b as strings.Fields splits it,
// or an empty slice.
func firstField(b []byte) []byte {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		b = b[:i]
	}
	return b
}

// gunzip returns the stream of r, through a gzip reader when r starts with
// the gzip magic bytes, and whether it did.
func gunzip(r io.Reader) (io.Reader, bool, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		return zr, true, err
	}
	return br, false, nil
}
