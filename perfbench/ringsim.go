package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/tokensim"
)

// Shape of the ring-sim workload: VAL-SIM's validation on the paper's
// 100-station plant. Each set is saturated under an analyzer, backed
// off by VAL-SIM's margin and simulated with VAL-SIM's settings
// (saturated asynchronous traffic, synchronized phasing, default
// horizon; PDP with the analysis's Θ/2 token-pass model).
const (
	simSets       = 4
	simStations   = 100
	simMarginPDP  = 0.95
	simMarginTTP  = 0.90
	simLadderSets = 2 // sets whose three simulations the ladder replays
)

// simBandwidths are VAL-SIM's bandwidths; set k runs at simBandwidths[k%2].
var simBandwidths = []float64{4e6, 100e6}

// simJob is one (MAC, set) simulation, ready to run.
type simJob struct {
	mac string // "pdp", "reservation" or "ttp"
	set int
	// ttrt is the TTP simulation's target rotation time (0 otherwise).
	ttrt float64
	run  func(tr tokensim.Tracer) (tokensim.Result, error)
}

// simOutcome is one finished simulation.
type simOutcome struct {
	job int
	res tokensim.Result
}

// simJobs draws the sets from the seed and builds the twelve jobs; any
// set whose analysis margins do not hold is an error.
func simJobs(seed int64) ([]simJob, error) {
	rng := rand.New(rand.NewSource(splitmix(seed, 400)))
	gen := message.PaperGenerator()
	var jobs []simJob
	for k := 0; k < simSets; k++ {
		set, err := gen.Draw(rng)
		if err != nil {
			return nil, err
		}
		bw := simBandwidths[k%len(simBandwidths)]

		mod := core.NewModifiedPDP(bw)
		mod.Net = mod.Net.WithStations(simStations)
		test, err := guaranteed(set, mod, bw, simMarginPDP)
		if err != nil {
			return nil, fmt.Errorf("set %d, modified 802.5: %w", k, err)
		}
		w, err := tokensim.NewWorkload(test, simStations, tokensim.PhasingSynchronized, nil)
		if err != nil {
			return nil, err
		}
		pdp := tokensim.PDPSim{Net: mod.Net, Frame: mod.Frame, Variant: mod.Variant, Workload: w,
			AsyncSaturated: true, TokenPass: tokensim.PassAverageHalfTheta}
		jobs = append(jobs, simJob{mac: "pdp", set: k, run: func(tr tokensim.Tracer) (tokensim.Result, error) {
			c := pdp
			c.Tracer = tr
			return c.Run()
		}})

		std := core.NewStandardPDP(bw)
		std.Net = std.Net.WithStations(simStations)
		if test, err = guaranteed(set, std, bw, simMarginPDP); err != nil {
			return nil, fmt.Errorf("set %d, IEEE 802.5: %w", k, err)
		}
		if w, err = tokensim.NewWorkload(test, simStations, tokensim.PhasingSynchronized, nil); err != nil {
			return nil, err
		}
		res := tokensim.ReservationSim{Net: std.Net, Frame: std.Frame, Workload: w, AsyncSaturated: true}
		jobs = append(jobs, simJob{mac: "reservation", set: k, run: func(tr tokensim.Tracer) (tokensim.Result, error) {
			c := res
			c.Tracer = tr
			r, err := c.Run()
			return r.Result, err
		}})

		ttp := core.NewTTP(bw)
		ttp.Net = ttp.Net.WithStations(simStations)
		if test, err = guaranteed(set, ttp, bw, simMarginTTP); err != nil {
			return nil, fmt.Errorf("set %d, FDDI: %w", k, err)
		}
		if w, err = tokensim.NewWorkload(test, simStations, tokensim.PhasingSynchronized, nil); err != nil {
			return nil, err
		}
		tsim, err := tokensim.NewTTPSimFromAnalysis(ttp, test, w)
		if err != nil {
			return nil, err
		}
		tsim.AsyncSaturated = true
		jobs = append(jobs, simJob{mac: "ttp", set: k, ttrt: tsim.TTRT, run: func(tr tokensim.Tracer) (tokensim.Result, error) {
			c := tsim
			c.Tracer = tr
			return c.Run()
		}})
	}
	return jobs, nil
}

// guaranteed saturates the set under the analyzer and returns it backed
// off by margin, after checking, as VAL-SIM does, that the analysis
// accepts the margin load and rejects the load just past saturation.
func guaranteed(set message.Set, a core.Analyzer, bw, margin float64) (message.Set, error) {
	sat, err := breakdown.Saturate(set, a, bw, breakdown.SaturateOptions{})
	if err != nil {
		return nil, err
	}
	if !sat.Feasible {
		return nil, fmt.Errorf("infeasible at any load")
	}
	v, err := core.AnalyzeBatch(a, set, []float64{sat.Scale * margin, sat.Scale * 1.02})
	if err != nil {
		return nil, err
	}
	if !v[0] || v[1] {
		return nil, fmt.Errorf("margin check failed: schedulable(%.2f·sat) = %v, schedulable(1.02·sat) = %v", margin, v[0], v[1])
	}
	return sat.Set.Scale(margin), nil
}

func runRingSim(e env) (*outcome, error) {
	o := &outcome{throughputName: "sim_s_per_s"}
	o.set("bench.input_gen_s", 0) // the inputs are drawn and saturated in set-up
	jobs, err := repeatSetup(o, func() ([]simJob, error) { return simJobs(e.seed) }, func([]simJob) {})
	if err != nil {
		return nil, err
	}

	// One operation is a validation pass: every job once, in order.
	var mu sync.Mutex
	var done []simOutcome
	op := func(tracer func() tokensim.Tracer) opFunc {
		return func(int) (float64, time.Duration, error) {
			return timeCall(func() (float64, error) {
				simulated := 0.0
				for j, job := range jobs {
					res, err := job.run(tracer())
					if err != nil {
						return 0, fmt.Errorf("%s set %d: %w", job.mac, job.set, err)
					}
					mu.Lock()
					done = append(done, simOutcome{job: j, res: res})
					mu.Unlock()
					simulated += res.Horizon
				}
				return simulated, nil
			})
		}
	}
	untraced := op(func() tokensim.Tracer { return nil })
	if e.rec == nil {
		timedPhase(o, e.clients, e.seconds, untraced)
	} else {
		d := phaseSplit(e.seconds)
		u := timedPhase(o, e.clients, d, untraced)
		tracedPhase(o, u, e.clients, d, op(func() tokensim.Tracer { return &tokensim.CountingTracer{} }))
		if err := simLadder(e, o, jobs); err != nil {
			return nil, err
		}
	}
	checkSims(o, jobs, done)
	return o, nil
}

// checkSims applies VAL-SIM's properties — no deadline misses on
// guaranteed sets, TTP rotations within 2·TTRT — to the PDP and TTP
// simulations, and requires every repeat of a simulation to reproduce
// its first sample path exactly. The reservation MAC is not the
// Theorem 4.1 model, so its misses are reported, not checked.
func checkSims(o *outcome, jobs []simJob, done []simOutcome) {
	first := map[int]string{}
	misses, runs := 0, 0
	for _, d := range done {
		job := jobs[d.job]
		print := fmt.Sprintf("%+v", d.res)
		if f, ok := first[d.job]; !ok {
			first[d.job] = print
		} else if f != print {
			o.problemf("%s set %d: a repeat run's result differs from the first run's", job.mac, job.set)
		}
		switch job.mac {
		case "reservation":
			misses += d.res.DeadlineMisses
			runs++
		case "ttp":
			if d.res.RotationMax > 2*job.ttrt {
				o.problemf("ttp set %d: token rotation %g s exceeds 2·TTRT = %g s", job.set, d.res.RotationMax, 2*job.ttrt)
			}
			fallthrough
		default:
			if d.res.DeadlineMisses > 0 {
				o.problemf("%s set %d: %d deadline misses on an analytically guaranteed set", job.mac, job.set, d.res.DeadlineMisses)
			}
		}
	}
	if runs > 0 {
		o.set("tokensim.reservation_misses", float64(misses)/float64(runs))
	}
}

// simLadder runs the first simLadderSets sets' simulations one at a
// time: untraced for wall time and allocations per simulated second,
// then again under a CountingTracer for the event count.
func simLadder(e env, o *outcome, jobs []simJob) error {
	rec := e.rec
	wall := map[string]float64{}
	simSecs := map[string]float64{}
	var allocs uint64
	var events int
	total := 0.0
	for _, job := range jobs[:3*simLadderSets] {
		m0 := mallocs()
		t0 := time.Now()
		res, err := job.run(nil)
		t1 := time.Now()
		allocs += mallocs() - m0
		if err != nil {
			return err
		}
		rec.add(rec.id(), 0, 0, "tokensim."+job.mac, t0, t1)
		wall[job.mac] += t1.Sub(t0).Seconds()
		simSecs[job.mac] += res.Horizon
		total += res.Horizon

		tr := &tokensim.CountingTracer{}
		traced, err := job.run(tr)
		if err != nil {
			return err
		}
		if fmt.Sprintf("%+v", traced) != fmt.Sprintf("%+v", res) {
			o.problemf("%s set %d: the traced run's result differs from the untraced run's", job.mac, job.set)
		}
		for _, n := range tr.Counts {
			events += n
		}
	}
	for mac, w := range wall {
		o.set("tokensim."+mac+"_us_per_sim_s", w/simSecs[mac]*1e6)
	}
	o.set("tokensim.events_per_sim_s", float64(events)/total)
	o.set("tokensim.allocs_per_sim_s", float64(allocs)/total)
	return nil
}
