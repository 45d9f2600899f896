package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Host-speed calibration. Shared hosts change speed by tens of percent
// over minutes, mostly in memory-bound work, as neighbours contend for
// caches and memory bandwidth; a 25-second run cannot average that out.
// So every end-to-end timing is scaled by the speed of a fixed
// calibration kernel timed right after it: on a host where the kernel
// takes kernelNominalMS, the scaled timings read as plain milliseconds.
// The kernel runs in a sidecar process, so its time depends on the host
// alone — never on the heap, the garbage collector or the code of the
// workload under test. README.md has the measurements behind the
// choice of kernel.

const (
	// kernelNominalMS is the kernel's duration on a quiet 2-vCPU Xeon
	// host, the speed scaled timings refer to.
	kernelNominalMS = 4.0
	// kernelWindow is the half-width, in timings, of the rolling median
	// of kernel durations that scales each timing: wide enough to smooth
	// the kernel's own jitter, narrow enough to follow the host's drift.
	kernelWindow = 4
)

var kernelSink int

// calibrationKernel churns the allocator and garbage collector the way
// the engine's layers do: 100,000 small allocations, at most 4,096 of
// them alive at a time.
func calibrationKernel() {
	var keep [][]byte
	for i := 0; i < 100_000; i++ {
		b := make([]byte, 64+(i%7)*32)
		b[0] = byte(i)
		keep = append(keep, b)
		if len(keep) > 4096 {
			keep = keep[:0]
		}
	}
	kernelSink += len(keep)
}

// serveCalibration is the sidecar: for every line read from in it runs
// the kernel once and writes the duration in nanoseconds as one line.
// It returns when in is closed.
func serveCalibration(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		t0 := time.Now()
		calibrationKernel()
		if _, err := fmt.Fprintln(out, int64(time.Since(t0))); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator is a workload process's handle on its sidecar.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startCalibrator re-executes this program as the `-calibrate` sidecar.
func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-calibrate")
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibration sidecar: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// measure has the sidecar run the kernel once and returns its duration
// in milliseconds.
func (c *calibrator) measure() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("calibration sidecar: %w", err)
	}
	if !c.out.Scan() {
		return 0, fmt.Errorf("calibration sidecar ended: %v", c.out.Err())
	}
	ns, err := strconv.ParseInt(c.out.Text(), 10, 64)
	return float64(ns) / 1e6, err
}

// stop ends the sidecar by closing its input and waits for it to exit.
func (c *calibrator) stop() error {
	if err := c.in.Close(); err != nil {
		return err
	}
	return c.cmd.Wait()
}

// scaled converts timings to the nominal host speed: timing i is
// multiplied by kernelNominalMS over the median kernel duration within
// kernelWindow timings of it. kernel[i] was measured right after
// timing i.
func scaled(times, kernel []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		lo, hi := max(0, i-kernelWindow), min(len(kernel), i+kernelWindow+1)
		out[i] = t * kernelNominalMS / median(kernel[lo:hi])
	}
	return out
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (Linux), so peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in MiB (Linux).
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			if f := bytes.Fields(v); len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
