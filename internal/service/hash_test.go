package service

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func mustCanon(t *testing.T, r AnalyzeRequest) AnalyzeRequest {
	t.Helper()
	c, err := r.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	return c
}

func analyzeKey(t *testing.T, r AnalyzeRequest) string {
	t.Helper()
	return mustCanon(t, r).CacheKey()
}

func baseRequest() AnalyzeRequest {
	return AnalyzeRequest{
		BandwidthMbps: 100,
		Streams: []StreamSpec{
			{Name: "telemetry", PeriodMs: 50, LengthBits: 65536},
			{Name: "gyro", PeriodMs: 10, LengthBits: 4096},
			{Name: "video", PeriodMs: 100, LengthBits: 1 << 20},
		},
	}
}

func TestPermutedStreamOrderHashesIdentically(t *testing.T) {
	a := baseRequest()
	b := baseRequest()
	b.Streams[0], b.Streams[2] = b.Streams[2], b.Streams[0]
	c := baseRequest()
	c.Streams[0], c.Streams[1] = c.Streams[1], c.Streams[0]
	want := analyzeKey(t, a)
	if got := analyzeKey(t, b); got != want {
		t.Errorf("permuted streams changed key: %s vs %s", got, want)
	}
	if got := analyzeKey(t, c); got != want {
		t.Errorf("permuted streams changed key: %s vs %s", got, want)
	}
}

func TestCanonFloatCollapsesNegativeZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	if math.Signbit(canonFloat(neg)) {
		t.Error("canonFloat(-0) kept the sign bit")
	}
	if canonFloat(neg) != canonFloat(0) {
		t.Error("+0 and -0 canonicalize differently")
	}
	// The property end to end: two canonical requests differing only in
	// the zero's sign serialize identically. Zero is invalid for every
	// request float, so exercise the hasher directly.
	ha, hb := newHasher("probe", 0), newHasher("probe", 0)
	ha.float("v", 0)
	hb.float("v", neg)
	if ha.sum() != hb.sum() {
		t.Error("hasher distinguishes +0 from -0")
	}
}

func TestFloatFormattingVariantsHashIdentically(t *testing.T) {
	// "100", "100.0", "1e2" and "0.1e3" all decode to the same float64;
	// the round-trip through strconv must key them identically.
	bodies := []string{
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}]}`,
		`{"bandwidthMbps":100.0,"streams":[{"periodMs":10.00,"lengthBits":4096.0}]}`,
		`{"bandwidthMbps":1e2,"streams":[{"periodMs":0.1e2,"lengthBits":4.096e3}]}`,
	}
	var keys []string
	for _, body := range bodies {
		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, analyzeKey(t, req))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Errorf("float formatting changed keys: %v", keys)
	}
}

func TestEquivalentFaultSpecsHashIdentically(t *testing.T) {
	a := baseRequest()
	a.FaultModel = "loss:p=1e-3+gilbert:burst=16"
	b := baseRequest()
	b.FaultModel = "gilbert:burst=16+loss:p=0.001" // reordered atoms, reformatted number
	if ka, kb := analyzeKey(t, a), analyzeKey(t, b); ka != kb {
		t.Errorf("equivalent fault specs keyed differently:\n%s\n%s", ka, kb)
	}

	// A named scenario and its spelled-out spec are the same question.
	c := baseRequest()
	c.Scenario = "lossy-token"
	d := baseRequest()
	d.FaultModel = "loss:p=0.001,detect=1ms,rounds=2"
	if kc, kd := analyzeKey(t, c), analyzeKey(t, d); kc != kd {
		t.Errorf("scenario and equivalent spec keyed differently:\n%s\n%s", kc, kd)
	}

	// "none" and the clean scenario mean a healthy ring, like no spec.
	e := baseRequest()
	e.FaultModel = "none"
	f := baseRequest()
	f.Scenario = "clean"
	if analyzeKey(t, e) != analyzeKey(t, baseRequest()) || analyzeKey(t, f) != analyzeKey(t, baseRequest()) {
		t.Error("inactive fault specs keyed differently from no spec")
	}
}

func TestDistinctRequestsHashDifferently(t *testing.T) {
	base := analyzeKey(t, baseRequest())
	bw := baseRequest()
	bw.BandwidthMbps = 16
	detail := baseRequest()
	detail.Detail = true
	fault := baseRequest()
	fault.Scenario = "degraded"
	protos := baseRequest()
	protos.Protocols = []string{ProtocolTTP}
	dup := baseRequest()
	dup.Streams = append(dup.Streams, dup.Streams[0]) // multiplicity is load, not a duplicate
	seen := map[string]string{base: "base"}
	for name, r := range map[string]AnalyzeRequest{
		"bandwidth": bw, "detail": detail, "fault": fault, "protocols": protos, "duplicate-stream": dup,
	} {
		k := analyzeKey(t, r)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

func TestCanonicalProtocolOrderAndAliases(t *testing.T) {
	a := baseRequest()
	a.Protocols = []string{"FDDI", "modified-802.5", "fddi"}
	canon := mustCanon(t, a)
	if len(canon.Protocols) != 2 || canon.Protocols[0] != ProtocolModifiedPDP || canon.Protocols[1] != ProtocolTTP {
		t.Errorf("canonical protocols = %v", canon.Protocols)
	}

	bad := baseRequest()
	bad.Protocols = []string{"token-bus"}
	if _, err := bad.Canonicalize(); err == nil || !strings.Contains(err.Error(), ProtocolStandardPDP) {
		t.Errorf("unknown protocol error should list valid slugs, got %v", err)
	}
}

func TestSweepCanonicalizationDefaultsAndGrid(t *testing.T) {
	canon, err := SweepRequest{}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Streams != 100 || canon.Samples != 100 || canon.Seed != 1993 ||
		canon.MeanPeriodMs != 100 || canon.PeriodRatio != 10 {
		t.Errorf("defaults not resolved: %+v", canon)
	}
	if len(canon.BandwidthsMbps) == 0 || canon.BandwidthsMbps[0] != 1 {
		t.Errorf("default grid wrong: %v", canon.BandwidthsMbps)
	}

	// An explicit grid equal to the derived one keys identically, and a
	// permuted, duplicated grid keys identically to the sorted one.
	explicit := SweepRequest{BandwidthsMbps: canon.BandwidthsMbps}
	ce, err := explicit.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if ce.CacheKey() != canon.CacheKey() {
		t.Error("explicit default grid keyed differently")
	}
	messy := SweepRequest{BandwidthsMbps: []float64{100, 10, 100, 4}}
	tidy := SweepRequest{BandwidthsMbps: []float64{4, 10, 100}}
	cm, err := messy.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tidy.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if cm.CacheKey() != ct.CacheKey() {
		t.Error("permuted/duplicated grid keyed differently")
	}
}

func TestAnalyzeResponseIsPureFunctionOfCanonicalRequest(t *testing.T) {
	a := baseRequest()
	b := baseRequest()
	b.Streams[0], b.Streams[2] = b.Streams[2], b.Streams[0]
	b.FaultModel = "none"
	ra, err := Analyze(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Analyze(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Encode(ra)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Encode(rb)
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Errorf("equivalent requests produced different bodies:\n%s\nvs\n%s", ba, bb)
	}
	if ra.CacheKey == "" || len(ra.Verdicts) != 3 {
		t.Errorf("unexpected response: %+v", ra)
	}
}

func TestAnalyzeRequestValidation(t *testing.T) {
	cases := map[string]AnalyzeRequest{
		"no streams":    {BandwidthMbps: 100},
		"zero bw":       {Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}},
		"negative bw":   {BandwidthMbps: -1, Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}},
		"nan bw":        {BandwidthMbps: math.NaN(), Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}},
		"bad period":    {BandwidthMbps: 100, Streams: []StreamSpec{{PeriodMs: -1, LengthBits: 64}}},
		"both faults":   {BandwidthMbps: 100, Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}, FaultModel: "loss", Scenario: "degraded"},
		"bad fault":     {BandwidthMbps: 100, Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}, FaultModel: "bogus:x=1"},
		"bad scenario":  {BandwidthMbps: 100, Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}, Scenario: "bogus"},
		"bad protocols": {BandwidthMbps: 100, Streams: []StreamSpec{{PeriodMs: 10, LengthBits: 64}}, Protocols: []string{"x"}},
	}
	for name, req := range cases {
		if _, err := req.Canonicalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
