package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
)

// The benchmark runs on shared machines whose speed drifts with other
// tenants' load: on a 2-vCPU VM the calibration below took from 0.12 to
// 0.22 s within one set of runs, and the CLIs' wall times followed. Raw
// wall times therefore measure the machine as much as the program.
//
// Before and after every set-up repetition, the warm-up, and every timed
// iteration the benchmark runs the calibration program, `lagbench
// calibrate`: a fixed mix of the kinds of work the CLIs do
// (page-faulting fresh memory, map inserts, sorting, hashing) on one
// goroutine per CPU, in a fresh process like the CLIs. Its time tracks
// the machine's speed at that moment and, being benchmark code, never
// changes between the commits compared. The end-to-end times are
// reported in reference seconds: raw seconds scaled by refCalibS over
// the calibration time around them. In two sets of ten seeds per
// workload, while the calibration time varied by 33-79% within each
// set, the spread of the run medians was 7-27% raw and 3.4-6.4% in
// reference seconds. The raw samples stay in the results file.

// refCalibS is about the calibration program's median wall time on the
// reference machine (a 2-vCPU Intel Xeon VM, Go 1.24), so that there
// reference seconds and raw seconds roughly agree.
const refCalibS = 0.110

// calibrate is `lagbench calibrate`: it runs the calibration work once.
func calibrate() int {
	var wg sync.WaitGroup
	sums := make([]int, runtime.GOMAXPROCS(0))
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = calibWork(uint64(g))
		}()
	}
	wg.Wait()
	// Printing the checksum keeps the work from being optimized away.
	fmt.Fprintln(os.Stderr, "calibrate:", sums)
	return 0
}

// calibWork is one goroutine's share of the calibration; the whole
// program takes about 0.11 s on the reference machine.
func calibWork(seed uint64) int {
	const n = 1 << 18
	fresh := make([]byte, 64<<20)
	for i := 0; i < len(fresh); i += 4096 {
		fresh[i] = byte(i >> 12)
	}
	m := map[uint64]int{}
	xs := make([]uint64, 0, n)
	x := seed*2654435761 + uint64(fresh[len(fresh)/2])
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		xs = append(xs, x>>20)
		m[x>>44] += i
	}
	slices.Sort(xs)
	buf := make([]byte, 2<<20)
	for i := range buf {
		buf[i] = byte(xs[i%n])
	}
	h := sha256.Sum256(buf)
	return len(m) + int(xs[n/2]&0xff) + int(h[0])
}

// calibrateOnce runs the calibration program and records its wall time.
func (r *run) calibrateOnce(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	p, err := runProgram(ctx, exe, "calibrate")
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	r.sample("calib_s", p.wall.Seconds())
	return nil
}

// timedSample records a raw time of metric, taken right after the last
// calibration run.
func (r *run) timedSample(metric string, raw float64) {
	r.sample(metric, raw)
	r.calibAt[metric] = append(r.calibAt[metric], len(r.samples["calib_s"])-1)
}

// reference returns metric's samples in reference seconds: each raw
// sample scaled by refCalibS over the mean of the calibration runs just
// before and just after it. The machine's speed drifts within a run
// too, and the pairing follows it: over six runs in which the machine
// slowed by half, the spread of big_trace's medians across seeds was
// 3.5% paired and 8.9% with one factor per run.
func (r *run) reference(metric string) []float64 {
	cs := r.samples["calib_s"]
	var out []float64
	for i, raw := range r.samples[metric] {
		k := r.calibAt[metric][i]
		c := cs[k]
		if k+1 < len(cs) {
			c = (c + cs[k+1]) / 2
		}
		out = append(out, raw*refCalibS/c)
	}
	return out
}
