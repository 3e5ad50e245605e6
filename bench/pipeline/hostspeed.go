package main

import "time"

// The benchmark's hosts are small VMs sharing a machine with others, and
// their speed drifts: over minutes, the same iteration took from 1.3 s to
// 6.6 s (bench/README.md). Wall seconds are therefore normalized by a
// reference kernel that no change to the simulator can alter: one write
// pass and one read pass over an 8 MB buffer, bound by memory bandwidth as
// most of the pipeline is. The kernel runs before every pipeline stage,
// after every iteration and around every set-up, outside the timed
// seconds. A time is reported in reference seconds: its wall seconds times
// refKernelSeconds over the mean kernel time sampled during it.

// refKernelSeconds is about the kernel's time on a quiet 2-vCPU reference
// host, so that reference seconds read close to wall seconds there.
const refKernelSeconds = 0.0025

// hostSpeed times the reference kernel and averages its samples over one
// measured interval. Every method is a no-op on a nil *hostSpeed, whose
// scale is 1.
type hostSpeed struct {
	buf  []uint32
	sink uint32
	sum  float64 // seconds over the interval's samples
	n    int
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{buf: make([]uint32, 2<<20)}
	h.kernel() // fault the buffer in before the first sample
	return h
}

func (h *hostSpeed) kernel() {
	for i := range h.buf {
		h.buf[i] = uint32(i) ^ h.sink
	}
	var acc uint32
	for _, v := range h.buf {
		acc += v
	}
	h.sink = acc
}

// sample times one run of the kernel.
func (h *hostSpeed) sample() {
	if h == nil {
		return
	}
	t0 := time.Now()
	h.kernel()
	h.sum += time.Since(t0).Seconds()
	h.n++
}

// reset starts a new interval.
func (h *hostSpeed) reset() {
	if h != nil {
		h.sum, h.n = 0, 0
	}
}

// kernelSeconds is the interval's mean kernel time, 0 without samples.
func (h *hostSpeed) kernelSeconds() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// scale turns the interval's wall seconds into reference seconds.
func (h *hostSpeed) scale() float64 {
	if k := h.kernelSeconds(); k > 0 {
		return refKernelSeconds / k
	}
	return 1
}
