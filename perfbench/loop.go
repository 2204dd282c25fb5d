package main

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// errStop tells closedLoop that a client has no more input.
var errStop = errors.New("perfbench: input exhausted")

// opFunc is one operation of a closed loop, run by the given client. It
// returns the units of work done and its own latency, so it can keep
// preparing its input out of the timed span; returning errStop ends that
// client without counting an operation.
type opFunc func(client int) (units float64, latency time.Duration, err error)

// timeCall adapts a call that is timed as a whole.
func timeCall(f func() (float64, error)) (float64, time.Duration, error) {
	t0 := time.Now()
	units, err := f()
	return units, time.Since(t0), err
}

// opSample is one finished operation: when it ended (from the start of
// the phase), how long it took and the units of work it did.
type opSample struct {
	end, lat time.Duration
	units    float64
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	elapsed   time.Duration
	samples   []opSample
	attempted int64
	failed    int64
}

// units is the work the phase's successful operations did.
func (s loopStats) units() float64 {
	u := 0.0
	for _, op := range s.samples {
		u += op.units
	}
	return u
}

// Window sizes for summarize: a phase with enough operations is cut into
// up to maxWindows equal time windows of at least minWindowOps
// operations each, so every window's p99 has ten samples beyond it.
const (
	maxWindows   = 20
	minWindowOps = 1000
)

// summarize returns the phase's throughput and its p50 and p99 latency
// in milliseconds. With enough operations each is the median over equal
// time windows, so a short burst of interference from outside the
// process moves a few windows and not the result; otherwise they are
// taken over the whole phase.
func (s loopStats) summarize() (rate, p50, p99 float64) {
	k := min(maxWindows, len(s.samples)/minWindowOps)
	if k < 2 {
		lat := make([]float64, len(s.samples))
		for i, op := range s.samples {
			lat[i] = float64(op.lat) / float64(time.Millisecond)
		}
		return s.units() / s.elapsed.Seconds(), percentile(lat, 50), percentile(lat, 99)
	}
	width := s.elapsed / time.Duration(k)
	units := make([]float64, k)
	lats := make([][]float64, k)
	for _, op := range s.samples {
		w := min(int(op.end/width), k-1)
		units[w] += op.units
		lats[w] = append(lats[w], float64(op.lat)/float64(time.Millisecond))
	}
	rates := make([]float64, 0, k)
	p50s := make([]float64, 0, k)
	p99s := make([]float64, 0, k)
	for w := range units {
		rates = append(rates, units[w]/width.Seconds())
		if len(lats[w]) > 0 {
			p50s = append(p50s, percentile(lats[w], 50))
			p99s = append(p99s, percentile(lats[w], 99))
		}
	}
	return median(rates), median(p50s), median(p99s)
}

// closedLoop runs clients goroutines that each call op back to back
// until d has elapsed: a client sends its next operation only after the
// previous one completed. A failed operation's latency is recorded as
// the phase's length, so it misses every latency limit.
func closedLoop(clients int, d time.Duration, op opFunc) loopStats {
	type clientStats struct {
		samples   []opSample
		attempted int64
		failed    int64
	}
	per := make([]clientStats, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &per[c]
			cs.samples = make([]opSample, 0, 1<<14)
			for time.Now().Before(deadline) {
				units, lat, err := op(c)
				if errors.Is(err, errStop) {
					return
				}
				cs.attempted++
				if err != nil {
					cs.failed++
					lat, units = d, 0
				}
				cs.samples = append(cs.samples, opSample{end: time.Since(start), lat: lat, units: units})
			}
		}(c)
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for _, cs := range per {
		out.samples = append(out.samples, cs.samples...)
		out.attempted += cs.attempted
		out.failed += cs.failed
	}
	return out
}

// timedPhase runs one closed-loop phase with the memory sampler and
// runtime counters around it, and records the end-to-end metrics.
func timedPhase(o *outcome, clients int, d time.Duration, op opFunc) loopStats {
	debug.FreeOSMemory()
	mem := startMemSampler()
	before, cpu0 := readRuntime(), cpuTime()
	st := closedLoop(clients, d, op)
	cpu, after := cpuTime()-cpu0, readRuntime()
	o.set("mem_peak_mb", mem.finish())
	if units := st.units(); units > 0 {
		o.set("cpu_us_per_op", float64(cpu)/1e3/units)
	}
	rate, p50, p99 := st.summarize()
	o.set("wall.ops_per_s", rate)
	o.set("wall.latency_p50_ms", p50)
	o.set("wall.latency_p99_ms", p99)
	o.set("runtime.gc_cpu_share", gcShare(before, after))
	if st.attempted > 0 {
		o.set("runtime.allocs_per_op", float64(after.allocs-before.allocs)/float64(st.attempted))
	}
	o.attempted += st.attempted
	o.failed += st.failed
	return st
}

// tracedPhase runs the same loop with the workload's spans on and
// records the traced throughput and the tracing overhead against the
// untraced phase.
func tracedPhase(o *outcome, untraced loopStats, clients int, d time.Duration, op opFunc) {
	runtime.GC()
	st := closedLoop(clients, d, op)
	traced, _, _ := st.summarize()
	o.set("bench.traced_ops_per_s", traced)
	if u, _, _ := untraced.summarize(); u > 0 {
		o.set("bench.trace_overhead_pct", 100*(u-traced)/u)
	}
	o.attempted += st.attempted
	o.failed += st.failed
}

// phaseSplit divides a traced run's time between the untraced loop, the
// traced loop and the per-layer ladder.
func phaseSplit(total time.Duration) time.Duration { return total / 3 }
