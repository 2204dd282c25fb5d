package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"time"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/service"
)

// Input sizes of the two /v1/analyze workloads.
const (
	hitSets       = 64
	hitStreams    = 30
	hitBandwidth  = 16.0 // Mbps
	missWarmups   = 16
	ladderBatch   = 32
	maxBodyChecks = 64
	checkWindow   = 4 * maxBodyChecks
)

// RNG streams of the analyze-miss requests and of its warm-up requests;
// request j draws from stream base+j.
const (
	missStream = 1 << 32
	warmStream = 1 << 33
)

// requestSource returns the body of a workload's j-th request; the same
// seed always gives the same bodies.
type requestSource func(j int) ([]byte, error)

func streamSpecs(set message.Set) []service.StreamSpec {
	out := make([]service.StreamSpec, len(set))
	for i, s := range set {
		out[i] = service.StreamSpec{Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits}
	}
	return out
}

// drawScaled draws one set and scales it to a utilization drawn
// uniformly from [0.2, 0.6] at the given bandwidth, so verdicts mix.
func drawScaled(gen message.Generator, rng *rand.Rand, bandwidthBPS float64) (message.Set, error) {
	set, err := gen.Draw(rng)
	if err != nil {
		return nil, err
	}
	return set.ScaleToUtilization(0.2+0.4*rng.Float64(), bandwidthBPS)
}

// hitBodies draws the analyze-hit pool: 64 distinct 30-stream sets at
// 16 Mbps, all protocols.
func hitBodies(seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(splitmix(seed, 1)))
	gen := message.Generator{Streams: hitStreams, MeanPeriod: 100e-3, PeriodRatio: 10}
	bodies := make([][]byte, hitSets)
	for i := range bodies {
		set, err := drawScaled(gen, rng, hitBandwidth*1e6)
		if err != nil {
			return nil, err
		}
		if bodies[i], err = json.Marshal(service.AnalyzeRequest{
			Protocols:     service.AllProtocols(),
			BandwidthMbps: hitBandwidth,
			Streams:       streamSpecs(set),
		}); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// missGrid is the paper's bandwidth grid the analyze-miss requests cycle
// through.
var missGrid = breakdown.PaperBandwidths(3)

// missBody generates analyze-miss request j of the given RNG stream: a
// fresh 100-stream paper set at the j-th grid bandwidth, with
// per-stream detail. Requests are generated as the clients need them,
// outside the timed span of each request, because a pool for a whole
// run would dominate the process's memory.
func missBody(seed int64, stream uint64, j int) ([]byte, error) {
	rng := rand.New(rand.NewSource(splitmix(seed, stream+uint64(j))))
	bw := missGrid[j%len(missGrid)]
	set, err := drawScaled(message.PaperGenerator(), rng, bw)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.AnalyzeRequest{
		Protocols:     service.AllProtocols(),
		BandwidthMbps: bw / 1e6,
		Streams:       streamSpecs(set),
		Detail:        true,
	})
}

func runAnalyzeHit(e env) (*outcome, error) {
	o := &outcome{throughputName: "req_per_s"}
	start := time.Now()
	bodies, err := hitBodies(e.seed)
	if err != nil {
		return nil, err
	}
	o.set("bench.input_gen_s", time.Since(start).Seconds())
	src := func(j int) ([]byte, error) { return bodies[j%len(bodies)], nil }
	srv, err := repeatSetup(o, func() (*server, error) {
		return startWarmServer(e, src, len(bodies))
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	return o, analyzeWorkload(e, o, srv, src, "hit")
}

func runAnalyzeMiss(e env) (*outcome, error) {
	o := &outcome{throughputName: "req_per_s"}
	warm := func(j int) ([]byte, error) { return missBody(e.seed, warmStream, j) }
	srv, err := repeatSetup(o, func() (*server, error) {
		return startWarmServer(e, warm, missWarmups)
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	src := func(j int) ([]byte, error) { return missBody(e.seed, missStream, j) }
	return o, analyzeWorkload(e, o, srv, src, "miss")
}

// startWarmServer starts a server and posts the first n bodies once.
func startWarmServer(e env, src requestSource, n int) (*server, error) {
	srv, err := startServer(e.clients, e.rec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for j := 0; j < n; j++ {
		body, err := src(j)
		if err == nil {
			_, err = ok2xx(srv.do(http.MethodPost, "/v1/analyze", body, &buf))
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv, nil
}

// analyzeClient is one client goroutine's private state.
type analyzeClient struct {
	buf   bytes.Buffer
	cache map[string]int64
	saved map[int][]byte
	gen   time.Duration
}

// analyzeWorkload drives /v1/analyze in a closed loop, each request
// taking the next body from src, checks the responses, and in a traced
// run adds the per-layer ladder. want is the X-Cache value every
// request must get.
func analyzeWorkload(e env, o *outcome, srv *server, src requestSource, want string) error {
	clients := make([]analyzeClient, e.clients)
	for c := range clients {
		clients[c] = analyzeClient{cache: map[string]int64{}, saved: map[int][]byte{}}
	}
	var cursor atomic.Int64
	pick := func() int { return int(cursor.Add(1) - 1) }
	op := func(c int) (float64, time.Duration, error) {
		cl := &clients[c]
		j := pick()
		g0 := time.Now()
		body, err := src(j)
		t0 := time.Now()
		cl.gen += t0.Sub(g0)
		if err != nil {
			return 0, 0, err
		}
		r, err := ok2xx(srv.do(http.MethodPost, "/v1/analyze", body, &cl.buf))
		lat := time.Since(t0)
		if err != nil {
			return 0, lat, err
		}
		cl.cache[r.cache]++
		if sampled(e.seed, j) && cl.saved[j] == nil {
			cl.saved[j] = bytes.Clone(r.body)
		}
		return 1, lat, nil
	}

	if e.rec == nil {
		timedPhase(o, e.clients, e.seconds, op)
	} else {
		d := phaseSplit(e.seconds)
		ev0, err := srv.metricValue("ringschedd_cache_evictions_total")
		if err != nil {
			return err
		}
		u := timedPhase(o, e.clients, d, op)
		ev1, err := srv.metricValue("ringschedd_cache_evictions_total")
		if err != nil {
			return err
		}
		o.set("service.cache_evictions_per_s", (ev1-ev0)/u.elapsed.Seconds())
		srv.tracing.Store(true)
		tracedPhase(o, u, e.clients, d, op)
		srv.tracing.Store(false)
		httpLayerMetrics(o, e.rec)
		if err := analyzeLadder(e, o, srv, src, pick, want, d); err != nil {
			return err
		}
	}

	var total, hits int64
	var gen time.Duration
	var checked []int
	saved := map[int][]byte{}
	for _, cl := range clients {
		var served int64
		for _, n := range cl.cache {
			served += n
		}
		if n := cl.cache[want]; n != served {
			o.problemf("%d of %d responses did not have X-Cache %q", served-n, served, want)
		}
		total += served
		hits += cl.cache["hit"]
		for j, b := range cl.saved {
			saved[j] = b
			checked = append(checked, j)
		}
		gen += cl.gen
	}
	if want == "miss" {
		o.set("bench.input_gen_s", gen.Seconds())
	}
	if total > 0 {
		o.set("service.cache_hit_ratio", float64(hits)/float64(total))
	}
	sort.Ints(checked)
	if len(checked) > maxBodyChecks {
		checked = checked[:maxBodyChecks]
	}
	if len(checked) == 0 {
		o.problemf("no sampled response was served, so none was checked")
	}
	for _, j := range checked {
		body, err := src(j)
		if err == nil {
			err = checkAnalyzeBody(body, saved[j])
		}
		if err != nil {
			o.problemf("request %d: %v", j, err)
		}
	}
	return nil
}

// sampled picks the seeded sample of requests whose bodies are checked:
// about a quarter of the first checkWindow requests.
func sampled(seed int64, j int) bool {
	return j < checkWindow && splitmix(seed, uint64(j)+1000)%4 == 0
}

// checkAnalyzeBody requires a served body to be byte-equal to what the
// library computes for the same request.
func checkAnalyzeBody(body, got []byte) error {
	var req service.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	resp, err := service.Analyze(context.Background(), req)
	if err != nil {
		return err
	}
	want, err := service.Encode(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served body (%d bytes) differs from service.Encode(service.Analyze(req)) (%d bytes)", len(got), len(want))
	}
	return nil
}

// httpLayerMetrics derives the HTTP rung from the traced phase's spans:
// the client round trip, and its self time outside the server-side span.
func httpLayerMetrics(o *outcome, rec *recorder) {
	st := summarize(rec.snapshot())["http.roundtrip"]
	o.set("http.roundtrip_us", st.meanUS())
	o.set("http.self_us", st.meanSelfUS())
}

// analyzeLadder calls each layer of the /v1/analyze path in process, one
// batch of requests and one rung at a time, with the same bodies the
// HTTP phases sent: the handler itself, then strict decode,
// Canonicalize, CacheKey, a benchmark-owned cache, and — on a miss —
// service.Analyze, service.Encode and the three core analyzers.
func analyzeLadder(e env, o *outcome, srv *server, src requestSource, pick func() int, want string, d time.Duration) error {
	rec := e.rec
	ctx := context.Background()
	cache := service.NewCache(64 << 20)
	miss := want == "miss"
	if !miss {
		for j := 0; j < hitSets; j++ {
			body, err := src(j)
			if err != nil {
				return err
			}
			var req service.AnalyzeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			resp, err := service.Analyze(ctx, req)
			if err != nil {
				return err
			}
			out, err := service.Encode(resp)
			if err != nil {
				return err
			}
			cache.Put(resp.CacheKey, out)
		}
	}
	var handlerAllocs, handlerCalls uint64
	var encodeBytes, encodes float64
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		js := make([]int, ladderBatch)
		bodies := make([][]byte, ladderBatch)
		for i := range js {
			js[i] = pick()
			b, err := src(js[i])
			if err != nil {
				return err
			}
			bodies[i] = b
		}
		traces := make([]uint64, len(js))
		for i := range traces {
			traces[i] = rec.id()
		}

		// The handler, exactly as served, minus the network.
		recs := make([]*httptest.ResponseRecorder, len(js))
		reqs := make([]*http.Request, len(js))
		for i := range js {
			recs[i] = httptest.NewRecorder()
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(bodies[i]))
		}
		m0 := mallocs()
		for i := range js {
			t0 := time.Now()
			srv.handler.ServeHTTP(recs[i], reqs[i])
			rec.add(traces[i], 0, 0, "service.handler", t0, time.Now())
		}
		handlerAllocs += mallocs() - m0
		handlerCalls += uint64(len(js))
		for i, j := range js {
			if recs[i].Code != http.StatusOK || recs[i].Header().Get("X-Cache") != want {
				o.problemf("in-process request %d: status %d, X-Cache %q", j, recs[i].Code, recs[i].Header().Get("X-Cache"))
			}
		}

		decoded := make([]service.AnalyzeRequest, len(js))
		for i, j := range js {
			t0 := time.Now()
			dec := json.NewDecoder(bytes.NewReader(bodies[i]))
			dec.DisallowUnknownFields()
			err := dec.Decode(&decoded[i])
			rec.add(traces[i], 0, 0, "service.decode", t0, time.Now())
			if err != nil {
				return fmt.Errorf("decode request %d: %w", j, err)
			}
		}
		canon := make([]service.AnalyzeRequest, len(js))
		for i := range js {
			t0 := time.Now()
			c, err := decoded[i].Canonicalize()
			rec.add(traces[i], 0, 0, "service.canonicalize", t0, time.Now())
			if err != nil {
				return err
			}
			canon[i] = c
		}
		keys := make([]string, len(js))
		for i := range js {
			t0 := time.Now()
			keys[i] = canon[i].CacheKey()
			rec.add(traces[i], 0, 0, "service.cache_key", t0, time.Now())
		}
		encoded := make([][]byte, len(js))
		if miss {
			for i := range js {
				t0 := time.Now()
				resp, err := service.Analyze(ctx, decoded[i])
				rec.add(traces[i], 0, 0, "service.analyze", t0, time.Now())
				if err != nil {
					return err
				}
				t0 = time.Now()
				b, err := service.Encode(resp)
				rec.add(traces[i], 0, 0, "service.encode", t0, time.Now())
				if err != nil {
					return err
				}
				encoded[i] = b
				encodeBytes += float64(len(b))
				encodes++
			}
			for i := range js {
				coreLadder(rec, traces[i], canon[i])
			}
		}
		for i := range js {
			t0 := time.Now()
			_, hit := cache.Get(keys[i])
			if miss {
				cache.Put(keys[i], encoded[i])
			}
			rec.add(traces[i], 0, 0, "service.cache", t0, time.Now())
			if hit == miss {
				o.problemf("benchmark-owned cache: hit=%v on a %s request", hit, want)
			}
		}
	}

	st := summarize(rec.snapshot())
	us := func(name string) float64 { return st[name].meanUS() }
	o.set("service.handler_us", us("service.handler"))
	if handlerCalls > 0 {
		o.set("service.handler_allocs", float64(handlerAllocs)/float64(handlerCalls))
	}
	for _, name := range []string{"decode", "canonicalize", "cache_key", "cache", "encode"} {
		o.set("service."+name+"_us", us("service."+name))
	}
	kernel := 0.0
	if miss {
		kernel = us("service.analyze") - us("service.canonicalize") - us("service.cache_key")
		o.set("service.encode_bytes", encodeBytes/encodes)
	}
	o.set("service.kernel_us", kernel)
	o.set("service.handler_self_us", us("service.handler")-us("service.decode")-us("service.canonicalize")-
		us("service.cache_key")-us("service.cache")-kernel-us("service.encode"))
	o.set("core.pdp_std_us", us("core.pdp_std"))
	o.set("core.pdp_mod_us", us("core.pdp_mod"))
	o.set("core.ttp_us", us("core.ttp"))
	return nil
}

// coreLadder times the three core analyzers' Report on one canonical
// request, configured as the service configures them.
func coreLadder(rec *recorder, trace uint64, req service.AnalyzeRequest) {
	set := make(message.Set, len(req.Streams))
	for i, s := range req.Streams {
		set[i] = message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits}
	}
	bw := req.BandwidthMbps * 1e6
	for _, p := range []struct {
		name string
		pdp  core.PDP
	}{{"core.pdp_std", core.NewStandardPDP(bw)}, {"core.pdp_mod", core.NewModifiedPDP(bw)}} {
		a := p.pdp
		if len(set) > a.Net.Stations {
			a.Net = a.Net.WithStations(len(set))
		}
		t0 := time.Now()
		_, _ = a.Report(set) // the service already analyzed this set without error
		rec.add(trace, 0, 0, p.name, t0, time.Now())
	}
	t := core.NewTTP(bw)
	if len(set) > t.Net.Stations {
		t.Net = t.Net.WithStations(len(set))
	}
	t0 := time.Now()
	_, _ = t.Report(set)
	rec.add(trace, 0, 0, "core.ttp", t0, time.Now())
}
