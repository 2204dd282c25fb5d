package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/expt"
	"ringsched/internal/message"
	"ringsched/internal/progress"
)

// Shape of the fig1 workload: each timed operation is one FIG1 run at
// the paper's setup (n = 100, three protocols, 3 points per decade from
// 1 Mbps to 1 Gbps) with fig1Samples Monte Carlo samples per point.
const (
	fig1Samples    = 20
	fig1Points     = 3
	fig1LadderRuns = 2  // timed runs whose samples the ladder replays
	fig1Checks     = 24 // saturated sets re-checked with the plain analyzer
)

// sampleMix is the estimator's per-sample RNG mixer: sample i of an
// estimate with seed s draws from rand.NewSource(s ^ sampleMix*(i+1)).
// The benchmark replays samples with it and checks the replay against
// breakdown.Estimator, so a change to the derivation fails the run.
const sampleMix = int64(-7046029254386353131)

// fig1Protocol is one Figure 1 series, built as expt builds it.
type fig1Protocol struct {
	name  string
	plain func(bw float64) core.Analyzer
	timed func(bw float64, t *probeTally) core.Analyzer
}

var fig1Protocols = []fig1Protocol{
	{"Modified 802.5",
		func(bw float64) core.Analyzer { return core.NewModifiedPDP(bw) },
		func(bw float64, t *probeTally) core.Analyzer { return timedPDP{core.NewModifiedPDP(bw), t} }},
	{"IEEE 802.5",
		func(bw float64) core.Analyzer { return core.NewStandardPDP(bw) },
		func(bw float64, t *probeTally) core.Analyzer { return timedPDP{core.NewStandardPDP(bw), t} }},
	{"FDDI",
		func(bw float64) core.Analyzer { return core.NewTTP(bw) },
		func(bw float64, t *probeTally) core.Analyzer { return timedTTP{core.NewTTP(bw), t} }},
}

// probeTally times and counts the probes of one saturation search.
type probeTally struct {
	rec           *recorder
	trace, parent uint64
	probes        int
}

// timedPDP and timedTTP decorate a core analyzer: embedding the concrete
// analyzer keeps every method it has, core.BatchAnalyzer included, and
// NewProbe is the only one replaced, by a probe that records a
// core.probe span per call.
type timedPDP struct {
	core.PDP
	tally *probeTally
}

func (a timedPDP) NewProbe(m message.Set) (core.Probe, func(), error) {
	p, release, err := a.PDP.NewProbe(m)
	return timedProbe{p, a.tally}, release, err
}

type timedTTP struct {
	core.TTP
	tally *probeTally
}

func (a timedTTP) NewProbe(m message.Set) (core.Probe, func(), error) {
	p, release, err := a.TTP.NewProbe(m)
	return timedProbe{p, a.tally}, release, err
}

type timedProbe struct {
	core.Probe
	tally *probeTally
}

func (p timedProbe) Schedulable(scale float64) (bool, error) {
	t0 := time.Now()
	ok, err := p.Probe.Schedulable(scale)
	p.tally.rec.add(p.tally.trace, 0, p.tally.parent, "core.probe", t0, time.Now())
	p.tally.probes++
	return ok, err
}

// fig1Seed is the expt.Config seed of the i-th timed run (never 0, which
// would select expt's default).
func fig1Seed(seed int64, run int) int64 { return splitmix(seed, 200+uint64(run)) | 1 }

func fig1Config(seed int64, samples, workers int) expt.Config {
	return expt.Config{Samples: samples, Seed: seed, PointsPerDecade: fig1Points, Workers: workers}
}

// sampleRNG is the RNG sample i of an estimate with the given seed
// draws its set from.
func sampleRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (sampleMix * int64(i+1))))
}

func runFig1(e env) (*outcome, error) {
	o := &outcome{throughputName: "samples_per_s"}
	exp, err := expt.ByID("FIG1")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	bandwidths := breakdown.PaperBandwidths(fig1Points)
	perRun := float64(len(fig1Protocols) * len(bandwidths) * fig1Samples)
	o.set("bench.input_gen_s", 0) // inputs are seeds; the draws are timed work

	// Set-up draws and saturates a small FIG1 run on its own seed.
	_, err = repeatSetup(o, func() (struct{}, error) {
		_, err := expt.RunOne(ctx, exp, fig1Config(fig1Seed(e.seed, -1), 2, e.procs), nil)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	// One client runs the loop, so next and notPassed need no lock; the
	// loop's WaitGroup orders them before the checks below.
	var notPassed []string
	next := 0
	run := func() (float64, error) {
		i := next
		next++
		rep, err := expt.RunOne(ctx, exp, fig1Config(fig1Seed(e.seed, i), fig1Samples, e.procs), nil)
		if err != nil {
			return 0, err
		}
		if !rep.Pass {
			notPassed = append(notPassed, fmt.Sprintf("run %d: %v", i, rep.Notes))
			return 0, fmt.Errorf("FIG1 run %d did not pass", i)
		}
		return perRun, nil
	}
	op := func(int) (float64, time.Duration, error) { return timeCall(run) }
	if e.rec == nil {
		timedPhase(o, 1, e.seconds, op)
	} else {
		d := phaseSplit(e.seconds)
		u := timedPhase(o, 1, d, op)
		tracedPhase(o, u, 1, d, func(int) (float64, time.Duration, error) {
			t0 := time.Now()
			units, err := run()
			t1 := time.Now()
			e.rec.add(e.rec.id(), 0, 0, "expt.run", t0, t1)
			return units, t1.Sub(t0), err
		})
		if err := fig1Ladder(e, o, exp, bandwidths); err != nil {
			return nil, err
		}
	}
	for _, p := range notPassed {
		o.problemf("FIG1 acceptance failed: %s", p)
	}
	if err := checkFig1(e.seed, bandwidths); err != nil {
		o.problemf("%v", err)
	}
	return o, nil
}

// fig1Observer records the progress callbacks of FIG1 runs. With one
// worker the callbacks arrive in order, so the time from a point's last
// sample to its SweepPointDone is that point's aggregation.
type fig1Observer struct {
	progress.Nop
	rec *recorder

	mu         sync.Mutex
	lastSample time.Time
	lastPoint  time.Time
	aggregate  time.Duration
}

func (f *fig1Observer) SampleDone() {
	f.mu.Lock()
	f.lastSample = time.Now()
	f.mu.Unlock()
}

func (f *fig1Observer) SweepPointDone(string, float64) {
	now := time.Now()
	f.mu.Lock()
	f.rec.add(f.rec.id(), 0, 0, "expt.point_aggregate", f.lastSample, now)
	f.aggregate += now.Sub(f.lastSample)
	f.lastPoint = now
	f.mu.Unlock()
}

// fig1Ladder replays the samples of the first timed runs rung by rung:
// the draw, the saturation search with the plain analyzer, and the same
// search through the probe-timing decorator. It also times one FIG1 run
// on one worker to measure its aggregation: each point's statistics and
// the final report.
func fig1Ladder(e env, o *outcome, exp expt.Experiment, bandwidths []float64) error {
	rec := e.rec
	var drawAllocs uint64
	var draws, saturations, probes int
	for run := 0; run < fig1LadderRuns; run++ {
		seed := fig1Seed(e.seed, run)
		rngs := make([]*rand.Rand, fig1Samples)
		for i := range rngs {
			rngs[i] = sampleRNG(seed, i)
		}
		sets := make([]message.Set, fig1Samples)
		gen := message.PaperGenerator()
		m0 := mallocs()
		for i, rng := range rngs {
			t0 := time.Now()
			set, err := gen.Draw(rng)
			rec.add(rec.id(), 0, 0, "message.draw", t0, time.Now())
			if err != nil {
				return err
			}
			sets[i] = set
		}
		drawAllocs += mallocs() - m0
		draws += len(sets)
		for _, p := range fig1Protocols {
			for _, bw := range bandwidths {
				for _, set := range sets {
					trace := rec.id()
					t0 := time.Now()
					plain, err := breakdown.Saturate(set, p.plain(bw), bw, breakdown.SaturateOptions{})
					rec.add(trace, 0, 0, "breakdown.saturate", t0, time.Now())
					if err != nil {
						return err
					}
					tally := &probeTally{rec: rec, trace: trace, parent: rec.id()}
					t0 = time.Now()
					timed, err := breakdown.Saturate(set, p.timed(bw, tally), bw, breakdown.SaturateOptions{})
					rec.add(trace, tally.parent, 0, "breakdown.saturate_traced", t0, time.Now())
					if err != nil {
						return err
					}
					if timed.Scale != plain.Scale || timed.Feasible != plain.Feasible {
						o.problemf("%s at %g bps: decorated analyzer saturated at %g, plain at %g", p.name, bw, timed.Scale, plain.Scale)
					}
					saturations++
					probes += tally.probes
				}
			}
		}
	}

	obs := &fig1Observer{rec: rec}
	if _, err := expt.RunOne(context.Background(), exp, fig1Config(fig1Seed(e.seed, 0), fig1Samples, 1), obs); err != nil {
		return err
	}
	end := time.Now()
	rec.add(rec.id(), 0, 0, "expt.report", obs.lastPoint, end)
	o.set("expt.aggregate_us", float64(obs.aggregate+end.Sub(obs.lastPoint))/1e3)

	st := summarize(rec.snapshot())
	o.set("message.draw_us", st["message.draw"].meanUS())
	o.set("message.draw_allocs", float64(drawAllocs)/float64(draws))
	o.set("breakdown.saturate_us", st["breakdown.saturate"].meanUS())
	o.set("breakdown.probes_per_sample", float64(probes)/float64(saturations))
	o.set("core.probe_us", st["core.probe"].meanUS())
	return nil
}

// checkFig1 re-derives the first timed run's samples and checks them:
// the replayed utilizations must reproduce breakdown.Estimator's mean
// for one point, and a seeded sample of saturated sets must be
// schedulable at the reported scale and unschedulable at
// scale·(1+2·RelTol), both under the plain analyzer.
func checkFig1(seed int64, bandwidths []float64) error {
	runSeed := fig1Seed(seed, 0)
	sets := make([]message.Set, fig1Samples)
	for i := range sets {
		set, err := message.PaperGenerator().Draw(sampleRNG(runSeed, i))
		if err != nil {
			return err
		}
		sets[i] = set
	}

	p, bw := fig1Protocols[0], bandwidths[len(bandwidths)/2]
	est, err := breakdown.PaperEstimator(fig1Samples, runSeed).Estimate(p.plain(bw), bw)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, set := range sets {
		sat, err := breakdown.Saturate(set, p.plain(bw), bw, breakdown.SaturateOptions{})
		if err != nil {
			return err
		}
		if sat.Feasible {
			sum += sat.Utilization
		}
	}
	if got := sum / float64(len(sets)); math.Abs(got-est.Mean) > 1e-9*math.Abs(est.Mean) {
		return fmt.Errorf("replayed samples give mean breakdown %.12g, the estimator %.12g", got, est.Mean)
	}

	const relTol = 1e-6 // breakdown.SaturateOptions' default
	rng := rand.New(rand.NewSource(splitmix(seed, 300)))
	for c := 0; c < fig1Checks; c++ {
		p := fig1Protocols[rng.Intn(len(fig1Protocols))]
		bw := bandwidths[rng.Intn(len(bandwidths))]
		i := rng.Intn(len(sets))
		a := p.plain(bw)
		sat, err := breakdown.Saturate(sets[i], a, bw, breakdown.SaturateOptions{})
		if err != nil {
			return err
		}
		if !sat.Feasible {
			continue
		}
		at, err := a.Schedulable(sets[i].Scale(sat.Scale))
		if err != nil {
			return err
		}
		above, err := a.Schedulable(sets[i].Scale(sat.Scale * (1 + 2*relTol)))
		if err != nil {
			return err
		}
		if !at || above {
			return fmt.Errorf("%s at %g bps, sample %d: schedulable at scale %g = %v, at scale·(1+2·RelTol) = %v",
				p.name, bw, i, sat.Scale, at, above)
		}
	}
	return nil
}
