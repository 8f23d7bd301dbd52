package transport

import (
	"math/bits"
	"sync"
)

// Pooled buffers come in power-of-two capacities from 64 B to 1 MiB, one
// sync.Pool per capacity, so a request only ever meets buffers that fit it:
// a 10 kB RPC response and an 11-byte barrier token recycle side by side
// without evicting each other. Frames beyond the largest class — bulk
// alltoallv bodies, which their receivers keep and never recycle — are
// allocated at their exact size and stay out of the pool.
const (
	minClassBits = 6
	maxClassBits = 20
)

// framePool recycles frame buffers between deliveries. Recycled buffers
// come back from receiving ranks' goroutines while senders draw from
// arbitrary ones, so each class is a sync.Pool (of *[]byte, keeping the
// header allocation off the Put path).
type framePool struct {
	classes [maxClassBits - minClassBits + 1]sync.Pool
}

// get returns a length-n buffer: a pooled one of n's class when there is
// one, otherwise a fresh one with the class's full capacity so that it can
// serve the whole class once recycled.
func (fp *framePool) get(n int) []byte {
	if n > 1<<maxClassBits {
		return make([]byte, n)
	}
	c := max(bits.Len(uint(max(n, 1)-1)), minClassBits) // smallest c with n <= 1<<c
	if v, ok := fp.classes[c-minClassBits].Get().(*[]byte); ok {
		return (*v)[:n]
	}
	return make([]byte, n, 1<<c)
}

// put returns a buffer for reuse, filed under the largest class its
// capacity covers (buffers the pool did not allocate may have any
// capacity); those too small or too large for every class are dropped.
func (fp *framePool) put(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 // largest c with 1<<c <= cap(b)
	if c < minClassBits || cap(b) > 1<<maxClassBits {
		return
	}
	b = b[:0]
	fp.classes[c-minClassBits].Put(&b)
}
