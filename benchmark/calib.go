package main

import (
	"sync"
	"time"
)

// The machine this benchmark runs on is a 2-vCPU guest whose host takes
// processor time away for seconds to minutes at a stretch: identical code
// ran 2 to 3.5 times slower for three minutes in the middle of one A/A
// check. A run that falls into such a stretch says nothing about the code,
// so every time metric is reported in calibrated seconds: the time measured,
// divided by how much slower than nominal a fixed calibration loop ran just
// before and just after it. With two processor-bound competitors on the
// machine the raw rep time of overlap-noisy doubles and the calibrated one
// moves by 5 % (README, "Calibrated seconds").

// calibNominal is what calibrate returns on the reference machine when
// nothing else runs. It only fixes the unit: on another machine every
// calibrated time is off by the same constant factor.
const calibNominal = 0.024

// calibrate runs a fixed amount of integer and cache-missing memory work on
// one goroutine per rank — the shape of a rep — and returns its wall time
// in seconds.
func calibrate() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < ranks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := calibBufs[g]
			mask := uint64(len(buf) - 1)
			x := uint64(88172645463325252 + g)
			var acc uint32
			for i := 0; i < 3_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				idx := x & mask
				buf[idx] += uint32(x >> 40)
				acc += buf[(idx*31)&mask] & 7
			}
			buf[0] = acc
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

var calibBufs = func() [][]uint32 {
	out := make([][]uint32, ranks)
	for i := range out {
		out[i] = make([]uint32, 1<<20) // 4 MB each: misses the L2, mostly hits the LLC
	}
	return out
}()

// speedMeter turns raw times into calibrated ones. It samples the machine
// when created and at every factor call, so consecutive operations share
// the sample between them.
type speedMeter struct {
	prev  float64   // slowdown at the previous sample
	slows []float64 // every slowdown applied
}

func newSpeedMeter() *speedMeter { return &speedMeter{prev: calibrate() / calibNominal} }

// factor samples the machine again and returns what to multiply the raw
// time of whatever ran since the previous sample by: 1 over the mean
// slowdown of the two samples around it.
func (m *speedMeter) factor() float64 {
	cur := calibrate() / calibNominal
	slow := (m.prev + cur) / 2
	m.prev = cur
	m.slows = append(m.slows, slow)
	return 1 / slow
}
