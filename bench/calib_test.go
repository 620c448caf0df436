package main

import "testing"

func TestReferencePairsNeighbouringCalibrations(t *testing.T) {
	r := &run{samples: map[string][]float64{}, calibAt: map[string][]int{}}
	r.sample("calib_s", refCalibS)
	r.timedSample("wall_s", 1)
	r.sample("calib_s", 3*refCalibS) // the machine slowed down
	r.timedSample("wall_s", 4)
	r.sample("calib_s", refCalibS)
	r.timedSample("wall_s", 0.5) // no calibration after it
	got := r.reference("wall_s")
	want := []float64{0.5, 2, 0.5}
	if len(got) != len(want) {
		t.Fatalf("reference = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("reference = %v, want %v", got, want)
			break
		}
	}
}
