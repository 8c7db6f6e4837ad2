package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
)

// A shared host runs the benchmark at a changing speed: load from outside
// slows the program by up to 2× for seconds at a time, sometimes for a
// whole run, and even the quiet stretches drift by ±15% from minute to
// minute. So perfbench times a fixed piece of work of its own, the
// calibration, all through the measured window, on the CPU that it shares
// with ppserve (see run.sh), and scales each part of the window to the
// speed at which the calibration takes calibRef. The calibration is
// perfbench code, the same whatever version of ppserve is measured; it
// runs between requests and is not counted in any latency.
//
// The calibration renders integers as decimal text, work with the same
// mix of arithmetic, branches and stores as the encoding and decoding
// ppserve does on every request. Its time follows the host's speed as
// ppserve's does, and it does not depend on which requests ran before it,
// unlike, say, sorting a fixed slice, which runs faster when few other
// branches have run since it was last timed.
//
// calibRef is the calibration's time on the 2-vCPU x86-64 virtual machine
// the benchmark was tuned on, in its quiet stretches, so that figures
// there read about as measured.
const calibRef = 30 * time.Microsecond

// calibEvery is how often the calibration is timed: before a request
// sent at least calibEvery after the previous timing, about 32 times a
// part.
const calibEvery = partLen / 32

// calibText is the calibration's output buffer, allocated once so that
// the calibration never triggers a garbage collection.
var calibText = make([]byte, 0, 16<<10)

// calibrate times one run of the calibration. A running ppserve is
// stopped meanwhile, so that its background work (garbage collection,
// timers) cannot share the CPU with it. A first, untimed run brings the
// calibration's code and data into the CPU's caches.
func calibrate(ppserve *os.Process) time.Duration {
	if ppserve != nil {
		_ = ppserve.Signal(syscall.SIGSTOP)
		defer ppserve.Signal(syscall.SIGCONT)
	}
	calibWork()
	t := time.Now()
	calibWork()
	return time.Since(t)
}

func calibWork() {
	calibText = calibText[:0]
	for i := range 2000 {
		calibText = strconv.AppendInt(calibText, int64(i*7919), 10)
	}
}
