package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The timed windows run on hosts whose memory system is shared with
// other tenants: on the reference host (2 vCPUs, no steal time) raw
// throughput moved by up to 1.75x between runs minutes apart while a
// pure ALU loop stayed within ±3%. A window therefore pauses its
// callers every probeEvery and times a fixed random walk over a buffer
// larger than the last-level cache share of a core. Over 25 minutes of
// alternating 0.4 s slices of suite-sched and corpus-compile work with
// walks of 256 KiB to 32 MiB, the 16 MiB walk tracked both workloads'
// throughput in proportion (fitted exponents 0.98 and 0.88 on 20 s
// blocks) and cut the blocks' log-spread from 0.15 and 0.13 to 0.057
// and 0.045; a 4 MiB walk over-corrected (exponents 0.81 and 0.73). Every end-to-end timing is scaled by the
// run's host factor, the median probe time over probeRef.
const (
	probeEvery = 250 * time.Millisecond
	probeSteps = 1 << 19
	probeBytes = 16 << 20
	// probeRef is the median probe time over those 25 minutes on the
	// reference host. It only sets the scale scaled values are read
	// in; it cancels from any comparison of two runs on one host.
	probeRef = 9400 * time.Microsecond
)

// probeBuf is the walk's working set. It is mapped outside the Go heap,
// so it does not move the garbage collector's pacing of the in-process
// workloads, and every page is touched when it is mapped, so it is
// resident for the whole process and selfPeakRSS can take it out of
// the peak exactly.
var probeBuf []uint64

// mapProbe maps and touches probeBuf, once per process; runWorkload
// calls it before its first set-up.
var mapProbe = sync.OnceValue(func() error {
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("mapping the calibration buffer: %w", err)
	}
	probeBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeBytes/8)
	for i := range probeBuf {
		probeBuf[i] = uint64(i)
	}
	return nil
})

// probe times probeSteps dependent read-modify-writes at pseudo-random
// places in probeBuf.
func probe() time.Duration {
	start := time.Now()
	mask := uint64(len(probeBuf) - 1)
	x := uint64(1)
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		probeBuf[(x>>20)&mask] += x
	}
	return time.Since(start)
}

// hostFactor is how much slower than the reference host the probes ran
// (1 without probes): the median probe time over probeRef.
func hostFactor(probes []time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), probes...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(probeRef)
}
