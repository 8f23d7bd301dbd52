package par

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"gnbody/internal/dist"
	"gnbody/internal/rt"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{P: 0}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := NewWorld(Config{P: -3}); err == nil {
		t.Error("P<0 accepted")
	}
}

func TestBarrierNoEarlyEscape(t *testing.T) {
	// Classic stress: a counter that every rank increments before the
	// barrier must read P after it, for many iterations.
	const P, iters = 8, 200
	w, err := NewWorld(Config{P: P})
	if err != nil {
		t.Fatal(err)
	}
	var counter atomic.Int32
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		for it := 0; it < iters; it++ {
			counter.Add(1)
			r.Barrier()
			if c := counter.Load(); int(c) < P*(it+1) {
				fail.Store(true)
			}
			r.Barrier()
		}
	})
	if fail.Load() {
		t.Error("a rank escaped the barrier before all arrived")
	}
}

func TestSplitBarrier(t *testing.T) {
	const P = 6
	w, _ := NewWorld(Config{P: P})
	var entered atomic.Int32
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		for it := 0; it < 50; it++ {
			entered.Add(1)
			wait := r.SplitBarrier()
			// interleaved work happens here
			wait()
			if int(entered.Load()) < P*(it+1) {
				fail.Store(true)
			}
			r.Barrier()
		}
	})
	if fail.Load() {
		t.Error("split barrier wait returned before all ranks entered")
	}
}

func TestAlltoallv(t *testing.T) {
	const P = 7
	w, _ := NewWorld(Config{P: P})
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		me := r.Rank()
		for it := 0; it < 20; it++ {
			send := make([][]byte, P)
			for dst := 0; dst < P; dst++ {
				// variable-size message encoding (src, dst, it)
				n := (me+dst+it)%5 + 1
				m := make([]byte, 12*n)
				for k := 0; k < n; k++ {
					binary.LittleEndian.PutUint32(m[12*k:], uint32(me))
					binary.LittleEndian.PutUint32(m[12*k+4:], uint32(dst))
					binary.LittleEndian.PutUint32(m[12*k+8:], uint32(it))
				}
				send[dst] = m
			}
			recv := r.Alltoallv(send)
			for src := 0; src < P; src++ {
				n := (src+me+it)%5 + 1
				if len(recv[src]) != 12*n {
					fail.Store(true)
					continue
				}
				if binary.LittleEndian.Uint32(recv[src][0:]) != uint32(src) ||
					binary.LittleEndian.Uint32(recv[src][4:]) != uint32(me) ||
					binary.LittleEndian.Uint32(recv[src][8:]) != uint32(it) {
					fail.Store(true)
				}
			}
		}
	})
	if fail.Load() {
		t.Error("alltoallv delivered wrong messages")
	}
}

func TestAllreduce(t *testing.T) {
	const P = 5
	w, _ := NewWorld(Config{P: P})
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		me := int64(r.Rank())
		if got := r.Allreduce(me+1, rt.OpSum); got != P*(P+1)/2 {
			fail.Store(true)
		}
		if got := r.Allreduce(me, rt.OpMax); got != P-1 {
			fail.Store(true)
		}
		if got := r.Allreduce(me, rt.OpMin); got != 0 {
			fail.Store(true)
		}
	})
	if fail.Load() {
		t.Error("allreduce produced wrong values")
	}
}

func TestRPCBasic(t *testing.T) {
	const P = 4
	w, _ := NewWorld(Config{P: P})
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		me := r.Rank()
		serveKV(r, func(key uint64) []byte {
			return []byte(fmt.Sprintf("rank%d:key%d", me, key))
		})
		r.Barrier() // all handlers registered
		got := map[string]bool{}
		for dst := 0; dst < P; dst++ {
			if dst == me {
				continue
			}
			dst := dst
			asyncGet(r, dst, uint64(me*100+dst), func(val []byte) {
				got[string(val)] = true
			})
		}
		r.Drain(0)
		for dst := 0; dst < P; dst++ {
			if dst == me {
				continue
			}
			want := fmt.Sprintf("rank%d:key%d", dst, me*100+dst)
			if !got[want] {
				fail.Store(true)
			}
		}
		if r.Outstanding() != 0 {
			fail.Store(true)
		}
		r.Barrier() // keep serving until everyone is done
	})
	if fail.Load() {
		t.Error("RPC returned wrong values")
	}
}

func TestRPCLoad(t *testing.T) {
	// Many small requests in flight at once, each rank serving its peers
	// while it drains its own.
	const P, per = 6, 500
	w, _ := NewWorld(Config{P: P})
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		me := r.Rank()
		serveKV(r, func(key uint64) []byte {
			v := make([]byte, 8)
			binary.LittleEndian.PutUint64(v, key*2)
			return v
		})
		r.Barrier()
		sum := uint64(0)
		want := uint64(0)
		for i := 0; i < per; i++ {
			dst := (me + 1 + i%(P-1)) % P
			key := uint64(me*1000000 + i)
			want += key * 2
			asyncGet(r, dst, key, func(val []byte) {
				sum += binary.LittleEndian.Uint64(val)
			})
			r.Drain(32) // cap outstanding
		}
		r.Drain(0)
		if sum != want {
			fail.Store(true)
		}
		r.Barrier()
	})
	if fail.Load() {
		t.Error("RPC under load lost or corrupted replies")
	}
}

func TestRPCDuringBarrier(t *testing.T) {
	// Rank 0 issues requests late while others already sit in the exit
	// barrier; they must keep serving.
	const P = 5
	w, _ := NewWorld(Config{P: P})
	fail := atomic.Bool{}
	w.Run(func(r rt.Runtime) {
		me := r.Rank()
		serveKV(r, func(key uint64) []byte { return []byte{byte(key)} })
		r.Barrier()
		if me == 0 {
			n := 0
			for dst := 1; dst < P; dst++ {
				asyncGet(r, dst, uint64(dst), func(val []byte) { n += int(val[0]) })
			}
			r.Drain(0)
			if n != 1+2+3+4 {
				fail.Store(true)
			}
		}
		r.Barrier()
	})
	if fail.Load() {
		t.Error("requests not serviced during barrier wait")
	}
}

func TestMemoryAccounting(t *testing.T) {
	w, _ := NewWorld(Config{P: 2, MemBudget: 1000})
	w.Run(func(r rt.Runtime) {
		if r.MemBudget() != 1000 {
			t.Errorf("MemBudget = %d", r.MemBudget())
		}
		r.Alloc(400)
		r.Alloc(300)
		r.Free(200)
		r.Alloc(100)
	})
	m := w.Metrics(0)
	if m.MaxMem != 700 {
		t.Errorf("MaxMem = %d, want 700", m.MaxMem)
	}
	if m.CurMem != 600 {
		t.Errorf("CurMem = %d, want 600", m.CurMem)
	}
}

func TestMemoryUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Free below zero did not panic")
		}
	}()
	var m rt.Metrics
	m.Free(1)
}

func TestChargeAndTimed(t *testing.T) {
	w, _ := NewWorld(Config{P: 1})
	w.Run(func(r rt.Runtime) {
		r.Charge(rt.CatAlign, 123)
		r.Timed(rt.CatOverhead, func() {
			for i := 0; i < 1000; i++ {
				_ = i * i
			}
		})
	})
	m := w.Metrics(0)
	if m.Time[rt.CatAlign] != 123 {
		t.Errorf("charged %v, want 123ns", m.Time[rt.CatAlign])
	}
	if m.Time[rt.CatOverhead] <= 0 {
		t.Errorf("Timed recorded %v", m.Time[rt.CatOverhead])
	}
}

func TestMetricsCounters(t *testing.T) {
	const P = 3
	w, _ := NewWorld(Config{P: P})
	w.Run(func(r rt.Runtime) {
		serveKV(r, func(uint64) []byte { return make([]byte, 10) })
		r.Barrier()
		if r.Rank() == 0 {
			asyncGet(r, 1, 5, func([]byte) {})
			r.Drain(0)
		}
		r.Barrier()
		send := make([][]byte, P)
		send[(r.Rank()+1)%P] = make([]byte, 100)
		r.Alltoallv(send)
	})
	if w.Metrics(0).RPCsSent != 1 {
		t.Errorf("rank0 RPCsSent = %d", w.Metrics(0).RPCsSent)
	}
	if w.Metrics(1).RPCserved != 1 {
		t.Errorf("rank1 RPCserved = %d", w.Metrics(1).RPCserved)
	}
	if w.Metrics(0).BytesRecv < 10+100 {
		t.Errorf("rank0 BytesRecv = %d", w.Metrics(0).BytesRecv)
	}
	if w.Metrics(0).BytesSent < 100 {
		t.Errorf("rank0 BytesSent = %d", w.Metrics(0).BytesSent)
	}
}

// TestAlltoallvWrongShapeFails: a send list of the wrong length is this
// rank's failure, returned from Run as a typed *dist.RankError naming the
// collective — not a panic that takes the process down.
func TestAlltoallvWrongShapeFails(t *testing.T) {
	w, _ := NewWorld(Config{P: 2})
	err := w.Run(func(r rt.Runtime) {
		if r.Rank() == 0 {
			r.Alltoallv(make([][]byte, 1))
		}
		// Rank 1 must not be left hanging: rank 0 never reaches the
		// exchange, so we do not call any collectives here.
	})
	var re *dist.RankError
	if !errors.As(err, &re) || re.Rank != 0 || re.Op != "alltoallv" {
		t.Errorf("wrong-shaped Alltoallv: Run returned %v, want rank 0's alltoallv *dist.RankError", err)
	}
}

func TestRunTwice(t *testing.T) {
	w, _ := NewWorld(Config{P: 4})
	for i := 0; i < 2; i++ {
		w.Run(func(r rt.Runtime) {
			r.Barrier()
			_ = r.Allreduce(1, rt.OpSum)
		})
	}
	if w.Metrics(0).Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}
