// Command perfbench is ringsched's end-to-end and per-layer benchmark.
//
// One process runs one workload: it starts what the workload needs (an
// in-process ringschedd on a loopback listener, the Figure 1 experiment,
// or the token-ring simulators), measures it in a closed loop for
// --seconds, checks the outputs, and prints one JSON result as the last
// line of standard output. --trace 0 reports the end-to-end metrics;
// --trace 1 runs a separate traced pass and reports the per-layer
// metrics. Every input is generated from --seed. From the repository
// root:
//
//	sh perfbench/run.sh --workload analyze-hit --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off. They are CPU time and memory,
// not wall-clock time: on a shared virtual machine the host takes our
// CPUs away in episodes (steal), which moved wall-clock throughput and
// tail latency of a fixed program by up to 2× between runs. The
// wall-clock figures are reported as per-layer wall.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not pass
// through a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"wall.ops_per_s", "1/s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p99_ms", "ms"},
	{"wall.setup_s", "s"},
	{"http.roundtrip_us", "us"},
	{"http.self_us", "us"},
	{"service.handler_us", "us"},
	{"service.handler_allocs", "count"},
	{"service.handler_self_us", "us"},
	{"service.decode_us", "us"},
	{"service.canonicalize_us", "us"},
	{"service.cache_key_us", "us"},
	{"service.cache_us", "us"},
	{"service.kernel_us", "us"},
	{"service.encode_us", "us"},
	{"service.encode_bytes", "bytes"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_evictions_per_s", "1/s"},
	{"core.pdp_std_us", "us"},
	{"core.pdp_mod_us", "us"},
	{"core.ttp_us", "us"},
	{"core.probe_us", "us"},
	{"breakdown.saturate_us", "us"},
	{"breakdown.probes_per_sample", "count"},
	{"message.draw_us", "us"},
	{"message.draw_allocs", "count"},
	{"expt.aggregate_us", "us"},
	{"ringstate.add_us", "us"},
	{"ringstate.modify_us", "us"},
	{"ringstate.remove_us", "us"},
	{"ringstate.reprobed_per_edit", "count"},
	{"ringstate.edit_allocs", "count"},
	{"tokensim.pdp_us_per_sim_s", "us"},
	{"tokensim.reservation_us_per_sim_s", "us"},
	{"tokensim.ttp_us_per_sim_s", "us"},
	{"tokensim.events_per_sim_s", "count"},
	{"tokensim.allocs_per_sim_s", "count"},
	{"tokensim.reservation_misses", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"bench.traced_ops_per_s", "1/s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.input_gen_s", "s"},
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	procs   int
	// clients is the number of closed-loop clients.
	clients int
	// rec is non-nil in a traced run.
	rec *recorder
}

// outcome is what a workload reports back.
type outcome struct {
	// throughputName is the workload's own name for wall.ops_per_s.
	throughputName string
	attempted      int64
	failed         int64
	// problems lists failed output checks; any entry makes correct false.
	problems []string
	metrics  map[string]float64
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(env) (*outcome, error){
	"analyze-hit":  runAnalyzeHit,
	"analyze-miss": runAnalyzeMiss,
	"rings-edit":   runRingsEdit,
	"fig1":         runFig1,
	"ring-sim":     runRingSim,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}

	total := result{Correct: true, Metrics: map[string]resultMetric{}}
	for _, name := range names {
		e := env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), procs: procs, clients: loopClients}
		if *traced == 1 {
			e.rec = newRecorder()
		}
		out, err := workloads[name](e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if e.rec != nil {
			path := traceFile(name, *seed)
			if err := e.rec.dump(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: writing spans: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stderr, "perfbench: %s: spans written to %s\n", name, path)
		}
		res, err := out.result(defs)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printHuman(stdout, name, out, res, defs)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the metrics in defs. An end-to-end metric the workload
// did not report is an error; a per-layer one is reported as 0.
func (o *outcome) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && isEndToEnd(d.name) {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// printHuman writes a readable summary ahead of the JSON line: the
// reported metrics, then every other metric the run measured, with
// wall.ops_per_s also under the workload's own throughput name.
func printHuman(w io.Writer, name string, o *outcome, res result, defs []metricDef) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", name, p)
	}
	line := func(label string, v float64, unit string) {
		fmt.Fprintf(w, "%s: %-40s %14.6g %s\n", name, label, v, unit)
	}
	for _, d := range defs {
		line(d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, shown := res.Metrics[d.name]; shown {
			continue
		}
		if v, ok := o.metrics[d.name]; ok {
			if d.name == "wall.ops_per_s" {
				d.name = o.throughputName + " (wall.ops_per_s)"
			}
			line("(measured) "+d.name, v, d.unit)
		}
	}
}

// repeatSetup runs setup setupRepeats times and keeps the last result,
// tearing the earlier ones down. It records setup_s, the median CPU time
// of the set-ups, and wall.setup_s, their median wall-clock time.
func repeatSetup[T any](o *outcome, setup func() (T, error), teardown func(T)) (T, error) {
	var kept T
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(kept)
		}
		runtime.GC()
		c0, w0 := cpuTime(), time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(w0).Seconds())
		kept = v
	}
	o.set("setup_s", median(cpu))
	o.set("wall.setup_s", median(wall))
	return kept, nil
}

// loopClients is the number of closed-loop clients of every workload but
// fig1, whose one client's FIG1 runs use every CPU. One client keeps the
// server's latency distribution unimodal: with two clients on two CPUs,
// whether a client and its handler shared a CPU split the latencies into
// two modes, and the median jumped between them from run to run.
const loopClients = 1

// setupRepeats is how many times each workload sets up per run.
const setupRepeats = 11
