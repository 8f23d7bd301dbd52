package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// maxFuzzInput caps the bytes FuzzFrame, FuzzSendV and FuzzAddrTable take
// in: a few frames or a few addresses. A longer input only repeats what
// these hold, and the engine minimizes a new input in time quadratic in its
// length; an uncapped target can sit at 0 execs a second. Every seed is
// under it.
const maxFuzzInput = 256

// FuzzFrame feeds arbitrary byte streams to the frame decoder. The codec
// invariants: never panic, never over-read (n <= len(buf)), report
// incomplete input as (0, nil) and oversized lengths as errors, and
// round-trip whatever AppendFrame produced.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendFrame(nil, []byte("hello")))
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("bb")))
	f.Add([]byte{0, 0, 0, 5, 'x'}) // truncated body
	f.Fuzz(func(t *testing.T, buf []byte) {
		if len(buf) > maxFuzzInput {
			return
		}
		rest := buf
		for {
			payload, n, err := DecodeFrame(rest)
			if n < 0 || n > len(rest) {
				t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(rest))
			}
			if err != nil {
				// Oversized length prefix: must not have consumed anything.
				if n != 0 {
					t.Fatalf("error with n=%d", n)
				}
				if len(rest) < 4 || binary.BigEndian.Uint32(rest) <= MaxFrame {
					t.Fatalf("unexpected error on valid prefix: %v", err)
				}
				return
			}
			if n == 0 {
				// Incomplete: everything left is less than one frame.
				if len(rest) >= 4 {
					want := 4 + int(binary.BigEndian.Uint32(rest))
					if len(rest) >= want {
						t.Fatalf("decoder stalled on complete frame (%d bytes available, frame %d)", len(rest), want)
					}
				}
				return
			}
			if len(payload) != n-4 {
				t.Fatalf("payload %d bytes, consumed %d", len(payload), n)
			}
			// Round-trip: re-encoding the decoded payload reproduces the
			// consumed bytes.
			if !bytes.Equal(AppendFrame(nil, payload), rest[:n]) {
				t.Fatal("re-encode does not reproduce input")
			}
			rest = rest[n:]
		}
	})
}

// FuzzAddrTable feeds arbitrary bytes to the decoder of the rendezvous
// address table rank 0 broadcasts: it must not panic, must accept only a
// table of exactly the world's size, and whatever it accepts must
// re-encode to exactly its bytes.
func FuzzAddrTable(f *testing.F) {
	const size = 3
	good := encodeTable([]string{"127.0.0.1:4000", "", "[::1]:4002"})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(encodeTable([]string{"a", "b"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			return
		}
		addrs, err := decodeTable(data, size)
		if err != nil {
			return
		}
		if len(addrs) != size {
			t.Fatalf("table of %d addresses accepted for %d ranks", len(addrs), size)
		}
		if again := encodeTable(addrs); !bytes.Equal(again, data) {
			t.Fatalf("table % x re-encodes to % x", data, again)
		}
	})
}
