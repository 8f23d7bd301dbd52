// The wire frame codec: every message on a TCP link — handshake and data
// alike — is a 4-byte big-endian length prefix followed by that many payload
// bytes. The pure functions AppendFrame/DecodeFrame define the format (and
// are the fuzz surface: DecodeFrame must never panic or over-read on
// truncated or corrupt input); readFrame/writeFrame apply it to streams.

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a single frame's payload (256 MiB). A decoded length
// beyond it is a protocol error, not an allocation request — corrupt input
// must not make the receiver reserve gigabytes.
const MaxFrame = 1 << 28

// AppendFrame appends the length-prefixed wire form of payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) > MaxFrame {
		// Invariant: only the handshake's hello, ident and address-table frames come here, tens of bytes per rank.
		panic(fmt.Sprintf("transport: frame payload %d exceeds MaxFrame", len(payload)))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame parses one frame from the front of buf. It returns the
// payload (aliasing buf) and the total bytes consumed. n == 0 with a nil
// error means buf holds an incomplete frame — read more and retry. A
// length prefix beyond MaxFrame is a protocol error.
func DecodeFrame(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < 4 {
		return nil, 0, nil
	}
	ln := binary.BigEndian.Uint32(buf)
	if ln > MaxFrame {
		return nil, 0, fmt.Errorf("transport: frame length %d exceeds MaxFrame %d", ln, MaxFrame)
	}
	if len(buf) < 4+int(ln) {
		return nil, 0, nil
	}
	return buf[4 : 4+ln], 4 + int(ln), nil
}

// readFrame reads one complete frame from r, allocating a fresh payload
// buffer (the receiver owns delivered frames).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.BigEndian.Uint32(hdr[:])
	if ln > MaxFrame {
		return nil, fmt.Errorf("transport: frame length %d exceeds MaxFrame %d", ln, MaxFrame)
	}
	payload := make([]byte, ln)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeFrame writes payload as one length-prefixed frame in a single
// Write call (the caller holds the connection's write lock).
func writeFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, 0, 4+len(payload))
	buf = AppendFrame(buf, payload)
	_, err := w.Write(buf)
	return err
}
