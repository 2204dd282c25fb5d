package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} }
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten(), 50, 5},
		{ten(), 90, 9},
		{ten(), 91, 10},
		{ten(), 99, 10},
		{ten(), 100, 10},
		{ten(), 10, 1},
		{ten(), 0.1, 1},
		{[]float64{42}, 99, 42},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) of %d values = %v, want %v", c.p, len(c.xs), got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no values = %v, want NaN", got)
	}
}

func TestSummarizeTakesTheMedianWindow(t *testing.T) {
	// 20 windows of 1000 operations at 1 ms each; one window is a burst
	// of slow operations that the windowed medians must ignore.
	var st loopStats
	st.elapsed = 20 * time.Second
	for i := 0; i < 20000; i++ {
		lat := time.Millisecond
		if i >= 5000 && i < 6000 {
			lat = 50 * time.Millisecond
		}
		st.samples = append(st.samples, opSample{end: time.Duration(i) * time.Millisecond, lat: lat, units: 1})
	}
	rate, p50, p99 := st.summarize()
	if rate != 1000 || p50 != 1 || p99 != 1 {
		t.Errorf("windowed summary = %v/s, p50 %v ms, p99 %v ms; want 1000/s, 1 ms, 1 ms", rate, p50, p99)
	}
	// Too few operations for windows: whole-phase statistics.
	st.samples = st.samples[5000:5100]
	st.elapsed = 10 * time.Second
	if rate, p50, _ := st.summarize(); rate != 10 || p50 != 50 {
		t.Errorf("whole-phase summary = %v/s, p50 %v ms; want 10/s, 50 ms", rate, p50)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	child := func(start, end int64) span { return span{Parent: 1, Start: start, End: end} }
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{child(10, 20), child(30, 50)}, 70},
		{"overlapping", []span{child(10, 30), child(20, 50), child(40, 60)}, 50},
		{"nested", []span{child(10, 60), child(20, 30)}, 50},
		{"identical", []span{child(10, 20), child(10, 20)}, 90},
		{"touching", []span{child(10, 20), child(20, 30)}, 80},
		{"unsorted", []span{child(40, 60), child(10, 30), child(20, 50)}, 50},
		{"clipped at both ends", []span{child(-20, 10), child(90, 130)}, 80},
		{"outside", []span{child(150, 200), child(-50, -10)}, 100},
		{"covering", []span{child(-10, 110), child(20, 30)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeLinksChildrenByParent(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "http.roundtrip", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "http.handler", Start: 20, End: 80},
		{Trace: 2, ID: 3, Name: "http.roundtrip", Start: 200, End: 250},
		{Trace: 2, ID: 4, Parent: 3, Name: "http.handler", Start: 210, End: 240},
	}
	st := summarize(spans)
	rt := st["http.roundtrip"]
	if rt.n != 2 || rt.totalNs != 150 || rt.selfNs != 60 {
		t.Fatalf("http.roundtrip: n=%d total=%d self=%d, want 2, 150, 60", rt.n, rt.totalNs, rt.selfNs)
	}
	if h := st["http.handler"]; h.selfNs != h.totalNs {
		t.Errorf("a leaf's self time %d should equal its duration %d", h.selfNs, h.totalNs)
	}
}

func TestRecorderDumpsJSONL(t *testing.T) {
	r := newRecorder()
	now := time.Now()
	trace := r.id()
	parent := r.add(trace, 0, 0, "a", now, now.Add(time.Millisecond))
	r.add(trace, 0, parent, "b", now, now.Add(time.Microsecond))
	path := t.TempDir() + "/spans.jsonl"
	if err := r.dump(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var b span
	if err := json.Unmarshal(lines[1], &b); err != nil {
		t.Fatal(err)
	}
	if b.Name != "b" || b.Parent != parent || b.Trace != trace || b.duration() != int64(time.Microsecond) {
		t.Errorf("second span read back as %+v", b)
	}
}

// bodiesOf collects every input a workload generates for a seed: each
// request body, and last the whole ring-edit script as one entry.
func bodiesOf(t *testing.T, seed int64) [][]byte {
	t.Helper()
	out, err := hitBodies(seed)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 25; j++ {
		b, err := missBody(seed, missStream, j)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	g, err := newRingGen(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	create, err := g.createBody()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, create)
	var script []byte
	for k := 0; k < 200; k++ {
		op, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		script = append(script, op.method+" "+op.suffix+" "...)
		script = append(script, op.body...)
	}
	return append(out, script)
}

func TestInputsRepeatForASeedAndDifferAcrossSeeds(t *testing.T) {
	a, b, c := bodiesOf(t, 7), bodiesOf(t, 7), bodiesOf(t, 8)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("input counts differ: %d, %d, %d", len(a), len(b), len(c))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("input %d differs between two runs with seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestMissBodiesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for j := 0; j < 40; j++ {
		b, err := missBody(3, missStream, j)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("request %d repeats an earlier body", j)
		}
		seen[string(b)] = true
	}
}

func TestRingScriptStaysInRange(t *testing.T) {
	g, err := newRingGen(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	counts := map[ringOpKind]int{}
	for k := 0; k < n; k++ {
		before := g.version
		op, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if size := len(g.ids); size < ringMinStreams || size > ringMaxStreams {
			t.Fatalf("after op %d the ring holds %d streams", k, size)
		}
		if op.kind != opGet && (op.version != before || g.version != before+1) {
			t.Fatalf("op %d expects version %d; the ring went from %d to %d", k, op.version, before, g.version)
		}
		counts[op.kind]++
	}
	if counts[opGet] != n/ringGetEvery {
		t.Errorf("%d GETs in %d operations, want %d", counts[opGet], n, n/ringGetEvery)
	}
	if counts[opModify] < counts[opAdd] || counts[opModify] < counts[opRemove] {
		t.Errorf("modify should dominate the mix: %v", counts)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists in BENCHMARK.json
// and in the program in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
