package main

import (
	"slices"
	"time"
)

// The host this suite was sized on runs a thread at one of two speeds,
// about 1.7 times apart, switching every few hundred milliseconds, and the
// share of time spent slow drifts over minutes as other tenants come and
// go. Raw throughput of two runs minutes apart then differs by 20-40%
// although the program and its inputs are the same. A calibrator measures
// that speed with a fixed loop that shares no code with the repository, so
// that batch and set-up times can be converted to seconds at nominal speed.

const (
	// calUnits is the number of units in one speed sample, about 4 ms at
	// nominal speed.
	calUnits = 100
	// nominalSpeed is the calibration loop's speed, in units per second,
	// on an uncontended vCPU of the machine the suite was sized on (a
	// shared 2-vCPU x86-64 VM, Go 1.24).
	nominalSpeed = 28000.0
)

// calibrator holds the loop's state. Its map and slice are allocated once,
// so sampling never allocates: the loop's speed does not depend on the
// heap the workload keeps, and it never triggers a collection that the
// workload would pay for.
type calibrator struct {
	m    map[int64]int64
	keys []int64
	sum  int64
}

func newCalibrator() *calibrator {
	return &calibrator{m: make(map[int64]int64, 1024), keys: make([]int64, 0, 1000)}
}

// unit is one unit of calibration work: 1000 pseudo-random map updates and
// a sort of 1000 keys, the mix of hashing, scattered stores and branches
// that DEM construction and decoding are made of.
func (c *calibrator) unit() {
	clear(c.m)
	c.keys = c.keys[:0]
	x := int64(7)
	for i := range 1000 {
		x = x*6364136223846793005 + 1442695040888963407
		c.m[x>>40] += int64(i)
		c.keys = append(c.keys, x>>33)
	}
	slices.Sort(c.keys)
	c.sum += int64(len(c.m)) + c.keys[0]
}

// speed samples the machine's current speed relative to nominal: a
// duration of t seconds measured now is t × speed() seconds at nominal
// speed.
func (c *calibrator) speed() float64 {
	t0 := time.Now()
	for range calUnits {
		c.unit()
	}
	return calUnits / time.Since(t0).Seconds() / nominalSpeed
}
