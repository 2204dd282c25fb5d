package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// Go runtime/metrics read by the benchmark.
const (
	metricMemTotal    = "/memory/classes/total:bytes"
	metricMemReleased = "/memory/classes/heap/released:bytes"
	metricGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU    = "/cpu/classes/total:cpu-seconds"
	metricAllocs      = "/gc/heap/allocs:objects"
	metricTinyAllocs  = "/gc/heap/tiny/allocs:objects"
)

// rtSnapshot is a point-in-time reading of the runtime counters behind
// runtime.gc_cpu_share and runtime.allocs_per_op.
type rtSnapshot struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricAllocs}, {Name: metricTinyAllocs}}
	metrics.Read(s)
	return rtSnapshot{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64() + s[3].Value.Uint64(),
	}
}

// gcShare is the fraction of the runtime's CPU time spent in GC between
// two snapshots.
func gcShare(a, b rtSnapshot) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// memSampler polls the memory the Go runtime holds while a timed phase
// runs and keeps the peak: all memory it has mapped, minus heap pages it
// has returned to the operating system. The phase starts after
// debug.FreeOSMemory, so memory left over from set-up does not count.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: metricMemTotal}, {Name: metricMemReleased}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64() - sample[1].Value.Uint64(); v > m.peak.Load() {
			m.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak.Load()) / 1e6
}

// mallocs returns the exact cumulative allocation count. ReadMemStats
// stops the world, so call it only around batches, never inside a timed
// call.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTime returns the CPU time the whole process has used, user and
// system, across all threads. On a virtual machine the kernel leaves out
// time the host ran other guests on our CPUs (steal), which wall-clock
// time cannot.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
