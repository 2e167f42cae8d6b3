package main

import (
	"runtime"
	"sort"
)

// The host's own speed drifts: on a 2-vCPU VM shared with other guests,
// the CPU time of the same serve-mix pass rose by 29% over six minutes of
// runs, and every other figure of those runs with it. So after every pass
// the benchmark times a fixed calibration job, which calls nothing of
// paramra, and reports CPU times as multiples of the run's median
// calibration time (the metrics named *_x). In two sets of fourteen runs
// the calibration time and a pass's CPU time correlated at 0.77–0.92
// across runs, and the spread between runs of serve-mix's pass CPU time
// fell from 10.5–11% raw to 3–6% as a multiple. The raw times stay in each
// run's record.

// calibration collects one run's calibration CPU times.
type calibration struct{ samples []float64 }

// run times one calibration job from a collected heap, like every
// verification: two rounds of building a map of 100,000 pseudo-random keys
// and sorting them, which allocates and chases pointers as the verifier
// does.
func (c *calibration) run() {
	runtime.GC()
	c0 := cpuSeconds()
	for round := uint64(1); round <= 2; round++ {
		calibrationSink += calibrationRound(round)
	}
	c.samples = append(c.samples, cpuSeconds()-c0)
}

// seconds is the run's median calibration CPU time.
func (c *calibration) seconds() float64 { return median(c.samples) }

// calibrationSink keeps the job's result live.
var calibrationSink int

func calibrationRound(seed uint64) int {
	m := map[uint64][]uint32{}
	x := seed
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 47
		m[k] = append(m[k], uint32(x))
	}
	keys := make([]uint64, 0, len(m))
	for k, v := range m {
		keys = append(keys, k+uint64(len(v)))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return len(keys)
}
