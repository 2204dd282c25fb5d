package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The goldens under testdata/ pin the exact wire bytes of every Encode'd
// response family and the exact cache-key hex of the request hashers.
// They were captured from the json.MarshalIndent encoder and the
// strings-based hasher, and must keep passing unedited: a byte that moves
// here is a wire-format or cache-key change, not a refactor. Refresh with
// `go test ./internal/service -run 'TestWireGolden|TestCacheKeyGolden' -update`
// only for an intended format change, and review the diff.
var updateGolden = flag.Bool("update", false, "rewrite testdata goldens with current output")

// goldenTrace and goldenClient make the ring audit trail deterministic.
const (
	goldenTrace  = "0123456789abcdef0123456789abcdef"
	goldenClient = "golden-client"
)

// goldenStep is one HTTP exchange whose 200 (or 201) body is pinned.
type goldenStep struct {
	file, method, path, body string
}

// oddNameBody is an analyze request exercising every optional response
// field — detail, a fault model, payload scales — with stream names that
// need JSON escaping (HTML characters, quote, backslash, U+2028).
const oddNameBody = `{
  "bandwidthMbps": 16,
  "faultModel": "loss:p=1e-3+gilbert:burst=16+crash:rate=1",
  "detail": true,
  "payloadScales": [0.5, 1, 1.5, 2.25],
  "streams": [
    {"name": "<&>\"\\", "periodMs": 10, "lengthBits": 4096},
    {"name": "tab\tand\u2028line", "periodMs": 25, "lengthBits": 12000},
    {"name": "télémétrie", "periodMs": 50, "lengthBits": 65536},
    {"name": "line\u2028sep", "periodMs": 200, "lengthBits": 5000},
    {"periodMs": 100, "lengthBits": 1e5}
  ]
}`

const goldenTopology = `{"topology":"ring:name=a,proto=8025mod,bw=16e6 + ring:name=b,proto=fddi,bw=100e6 + ring:name=c,proto=8025,bw=16e6 + bridge:a=a,b=b,latency=100us + bridge:a=b,b=c,latency=100us + flow:name=cross,src=a,dst=c,period=100ms,bits=4096 + flow:name=feed,src=b,dst=c,period=50ms,bits=2048 + flow:name=local,src=b,period=20ms,bits=1024","detail":true}`

var goldenSteps = []goldenStep{
	{"analyze_plain.json", http.MethodPost, "/v1/analyze", analyzeBody},
	{"analyze_detail_fault_scales.json", http.MethodPost, "/v1/analyze", oddNameBody},
	{"analyze_scenario.json", http.MethodPost, "/v1/analyze",
		`{"bandwidthMbps": 100, "scenario": "flaky-stations", "protocols": ["fddi"], "detail": true,
		  "streams": [{"name": "a", "periodMs": 5, "lengthBits": 2048}, {"name": "b", "periodMs": 8, "lengthBits": 9000}]}`},
	{"topology_detail.json", http.MethodPost, "/v1/topology/analyze", goldenTopology},
	{"sweep_small.json", http.MethodPost, "/v1/sweep", smallSweepBody},
	{"experiments_list.json", http.MethodGet, "/v1/experiments", ""},
	{"ring_create.json", http.MethodPost, "/v1/rings",
		`{"bandwidthMbps": 16, "faultModel": "loss:p=1e-3", "streams": [
		  {"name": "gyro", "periodMs": 10, "lengthBits": 4096},
		  {"name": "<telemetry & co>", "periodMs": 50, "lengthBits": 65536}]}`},
	{"ring_add.json", http.MethodPost, "/v1/rings/r1/streams",
		`{"expectedVersion": 1, "stream": {"name": "audio", "periodMs": 20, "lengthBits": 8192}}`},
	{"ring_modify.json", http.MethodPut, "/v1/rings/r1/streams/s1",
		`{"expectedVersion": 2, "stream": {"name": "gyro", "periodMs": 2, "lengthBits": 40960}}`},
	{"ring_remove.json", http.MethodDelete, "/v1/rings/r1/streams/s3?expectedVersion=3", ""},
	{"ring_get.json", http.MethodGet, "/v1/rings/r1", ""},
	{"ring_list.json", http.MethodGet, "/v1/rings", ""},
	{"ring_history.json", http.MethodGet, "/v1/rings/r1/history", ""},
}

// historyTime masks the audit trail's wall-clock stamps, the only field
// of any pinned body that is not a function of the request sequence.
var historyTime = regexp.MustCompile(`"time": "[^"]*"`)

// replayGolden runs goldenSteps in order against a fresh server and
// hands each 2xx exchange to check.
func replayGolden(t *testing.T, check func(st goldenStep, resp *http.Response, body []byte)) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	for _, st := range goldenSteps {
		var rd io.Reader
		if st.body != "" {
			rd = strings.NewReader(st.body)
		}
		req, err := http.NewRequest(st.method, ts.URL+st.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Ringsched-Trace", goldenTrace)
		req.Header.Set("X-Ringsched-Client", goldenClient)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s %s: status %d: %s", st.method, st.path, resp.StatusCode, b)
		}
		check(st, resp, b)
	}
}

func goldenBodies(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	replayGolden(t, func(st goldenStep, _ *http.Response, b []byte) {
		out[st.file] = historyTime.ReplaceAll(b, []byte(`"time": "<masked>"`))
	})
	return out
}

// TestEncodedResponsesSendContentLength: every Encode'd body — analyze,
// topology, sweep, experiments and each rings response — goes out with
// its exact Content-Length rather than chunked.
func TestEncodedResponsesSendContentLength(t *testing.T) {
	replayGolden(t, func(st goldenStep, resp *http.Response, b []byte) {
		if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				st.method, st.path, resp.ContentLength, resp.TransferEncoding, len(b))
		}
	})
}

// TestWireGolden checks every pinned response body byte for byte.
func TestWireGolden(t *testing.T) {
	got := goldenBodies(t)
	for _, st := range goldenSteps {
		path := filepath.Join("testdata", st.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got[st.file], 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got[st.file], want) {
			t.Errorf("%s: body drifted from golden at %s", st.file, firstDiff(string(got[st.file]), string(want)))
		}
	}
}

// keyCase is one request whose canonical cache key is pinned.
type keyCase struct {
	name string
	key  func() (string, error)
}

func analyzeKeyOf(r AnalyzeRequest) func() (string, error) {
	return func() (string, error) {
		c, err := r.Canonicalize()
		return c.CacheKey(), err
	}
}

func keyCases() []keyCase {
	negZero := math.Copysign(0, -1)
	streams := []StreamSpec{
		{Name: "gyro", PeriodMs: 10, LengthBits: 4096},
		{Name: `<&>"\ and 'quotes'`, PeriodMs: 12.5, LengthBits: 1e2},
		{PeriodMs: 1e-3, LengthBits: 123456789.125},
	}
	return []keyCase{
		{"analyze-basic", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 100, Streams: streams})},
		{"analyze-1e2", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 1e2, Streams: streams[:1]})},
		{"analyze-100", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 100, Streams: streams[:1]})},
		{"analyze-scales", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 16, Streams: streams,
			PayloadScales: []float64{2, 0.5, 1e2, 0.5}})},
		{"analyze-detail-fault", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 16, Streams: streams, Detail: true,
			Protocols: []string{"fddi", "standard-802.5", "fddi"}, FaultModel: "crash:rate=1+loss:p=1e-3"})},
		{"analyze-scenario", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 4, Streams: streams, Scenario: "flaky-stations"})},
		{"analyze-huge-bw", analyzeKeyOf(AnalyzeRequest{BandwidthMbps: 1e21, Streams: []StreamSpec{
			{Name: "x\u2028y", PeriodMs: 10.0 / 3, LengthBits: 1e15}}})},
		{"sweep-defaults", func() (string, error) {
			c, err := SweepRequest{}.Canonicalize()
			return c.CacheKey(), err
		}},
		{"sweep-grid", func() (string, error) {
			c, err := SweepRequest{Protocols: []string{"fddi"}, BandwidthsMbps: []float64{1e2, 10, 1000},
				Streams: 20, MeanPeriodMs: 12.5, PeriodRatio: 4, Samples: 7, Seed: -3}.Canonicalize()
			return c.CacheKey(), err
		}},
		// Zero is invalid in every request float, so -0 reaches the
		// serialization only through the hasher itself.
		{"hasher-negzero", func() (string, error) {
			h := newHasher("probe", 0)
			h.float("zero", negZero)
			h.floats("zeros", []float64{negZero, 0, 1e2, 100.5})
			h.strs("names", []string{"", `<&>"\`, "é"})
			h.strs("none", nil)
			h.int("n", math.MinInt64)
			h.bool("b", false)
			return h.sum(), nil
		}},
		{"topology", func() (string, error) {
			var r TopologyRequest
			if err := json.Unmarshal([]byte(goldenTopology), &r); err != nil {
				return "", err
			}
			c, err := r.Canonicalize()
			return c.CacheKey(), err
		}},
	}
}

// TestCacheKeyGolden pins the cache-key hex of analyze, sweep and
// topology requests, including -0, 1e2 vs 100 and names that quote.
func TestCacheKeyGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, kc := range keyCases() {
		k, err := kc.key()
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", kc.name, k)
	}
	path := filepath.Join("testdata", "cache_keys.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cache keys drifted:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// encodeCorpus returns typed response values covering every Encode
// caller: the golden bodies decoded back into their wire types, 60
// seeded detail/fault analyze responses, and hand-picked edge values.
func encodeCorpus(t *testing.T) []any {
	t.Helper()
	var corpus []any
	for file, body := range goldenBodies(t) {
		var v any
		switch {
		case strings.HasPrefix(file, "analyze"):
			v = new(AnalyzeResponse)
		case strings.HasPrefix(file, "topology"):
			v = new(TopologyResponse)
		case strings.HasPrefix(file, "sweep"):
			v = new(SweepResponse)
		case strings.HasPrefix(file, "experiments"):
			v = new(map[string][]ExperimentInfo)
		case file == "ring_list.json":
			v = new(RingListResponse)
		case file == "ring_create.json" || file == "ring_get.json":
			v = new(RingResponse)
		case file == "ring_history.json":
			continue // masked time stamps do not decode
		default:
			v = new(RingEditResponse)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		corpus = append(corpus, v)
	}

	rng := rand.New(rand.NewSource(1993))
	faults := []string{"", "loss:p=1e-3", "loss:p=1e-2+gilbert:burst=16", "crash:rate=1", "loss:p=1e-3+gilbert:burst=16+crash:rate=1"}
	for i := 0; i < 60; i++ {
		req := AnalyzeRequest{
			BandwidthMbps: []float64{1, 4, 16, 100, 1000}[rng.Intn(5)],
			FaultModel:    faults[rng.Intn(len(faults))],
			Detail:        true,
		}
		if i%3 == 0 {
			req.PayloadScales = []float64{0.25 + rng.Float64(), 1 + rng.Float64()}
		}
		for n, s := 2+rng.Intn(40), 0; s < n; s++ {
			req.Streams = append(req.Streams, StreamSpec{
				Name:       fmt.Sprintf("s%d-<%d>", s, rng.Intn(100)),
				PeriodMs:   1 + 200*rng.Float64(),
				LengthBits: math.Round(64 + 60000*rng.Float64()),
			})
		}
		resp, err := Analyze(context.Background(), req)
		if err != nil {
			t.Fatalf("analyze %d: %v", i, err)
		}
		corpus = append(corpus, resp)
	}

	corpus = append(corpus,
		nil, true, 0, -0.0, 1e21, 1e-7, 123456789.125, math.MaxInt64, "",
		"<&>\"\\\u2028 \x01 é 😀",
		[]int{}, []int(nil), map[string]int{}, map[string]any{"": nil},
		[]any{[]any{}, map[string]any{}, []any{[]any{[]any{}}}, map[string]any{"a": map[string]any{}}},
		map[string]any{"k:,{}[]\"": []any{"v:,{}[]\"", 1.5, false, nil}},
		json.RawMessage(`{"raw" : [ 1 , {} ] }`),
		struct {
			A []string          `json:"a"`
			B map[string]string `json:"b,omitempty"`
			C *Verdict          `json:"c"`
		}{A: []string{}},
	)
	return corpus
}

// TestEncodeMatchesMarshalIndent is the differential check behind the
// goldens: Encode must equal MarshalIndent(v, "", "  ") plus a newline
// on every value in the corpus, and its result must carry no slack
// capacity (the cache charges what a body keeps alive).
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	for i, v := range encodeCorpus(t) {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("value %d: MarshalIndent: %v", i, err)
		}
		want = append(want, '\n')
		got, err := Encode(v)
		if err != nil {
			t.Fatalf("value %d: Encode: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("value %d (%T): Encode differs from MarshalIndent at %s", i, v, firstDiff(string(got), string(want)))
		}
		if cap(got) != len(got) {
			t.Fatalf("value %d: Encode returned cap %d for len %d", i, cap(got), len(got))
		}
	}
}

// TestEncodeReportsMarshalErrors keeps Encode's error behaviour: values
// json cannot represent fail rather than producing a body.
func TestEncodeReportsMarshalErrors(t *testing.T) {
	for _, v := range []any{math.Inf(1), math.NaN(), map[string]any{"f": func() {}}, make(chan int)} {
		if b, err := Encode(v); err == nil {
			t.Errorf("Encode(%T) = %q, want an error", v, b)
		}
	}
}
