//go:build !amd64

package seq

// Off amd64 there are no vector kernels: the SWAR kernels run every read.
const hasAVX2 = false

// packAVX2, unpackAVX2, indexAtLeastAVX2 and decodeAVX2 are never
// selected here; they are stubs so the callers compile on every
// architecture.
func packAVX2(dst, src []byte) bool { return packSWAR(dst, src) }

func unpackAVX2(dst, src []byte) { unpackSWAR(dst, src) }

func indexAtLeastAVX2([]byte, byte) int { return -1 }

func decodeAVX2(dst []Base, src []byte) int { return decodeTable(dst, src) }
