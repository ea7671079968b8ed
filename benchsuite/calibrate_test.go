package main

import "testing"

// TestCalibratorAllocatesNothing pins the property the speed samples rely
// on: after the first unit, sampling allocates nothing, so it neither
// depends on nor adds to the workload's garbage.
func TestCalibratorAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	c.unit()
	if n := testing.AllocsPerRun(20, c.unit); n != 0 {
		t.Errorf("calibration unit allocates %g times, want 0", n)
	}
	if s := c.speed(); !(s > 0) {
		t.Errorf("speed %g, want > 0", s)
	}
}
