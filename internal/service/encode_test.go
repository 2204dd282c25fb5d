package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// FuzzIndent checks appendIndent against json.Indent on the compact
// form of any valid JSON document. The seeds cover escapes next to
// quotes and backslashes, structural bytes inside strings, empty
// containers and nesting past the 32 levels indentSpaces holds.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `null`, `"x"`, `-1.5e-7`, `{"a":[1,{},[],{"b":null}],"c":"\"\\,:{}[]"}`,
		`"\\"`, `"\\\\"`, `"a\"b"`, `["\\",",",":","{","}","[","]"]`, `{"\\\"k\\\\":"\"\\\\"}`,
		`[[[[[]]]],{"":{"":{}}}]`, ` { "sp" : [ 1 , 2 ] } `, "\"\u2028<&>é\"",
	} {
		f.Add([]byte(seed))
	}
	for _, depth := range []int{31, 32, 33, 100} {
		f.Add([]byte(strings.Repeat(`{"k":[`, depth) + `1,"\\\"",{}` + strings.Repeat(`]}`, depth)))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if !json.Valid(in) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, in); err != nil {
			t.Fatalf("Compact of valid input: %v", err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatalf("json.Indent(%q): %v", compact.Bytes(), err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%q) differs from json.Indent at %s", compact.Bytes(), firstDiff(string(got), want.String()))
		}
	})
}

// request100 is a 100-stream detail:true analyze request, the shape of
// the benchmark's analyze-miss requests.
func request100() AnalyzeRequest {
	rng := rand.New(rand.NewSource(1993))
	req := AnalyzeRequest{BandwidthMbps: 100, Detail: true}
	for i := 0; i < 100; i++ {
		req.Streams = append(req.Streams, StreamSpec{
			Name:       fmt.Sprintf("station-%d", i),
			PeriodMs:   10 + 90*rng.Float64(),
			LengthBits: float64(1000 + rng.Intn(20000)),
		})
	}
	return req
}

// Benchmark results land in sinks so the measured calls stay live.
var (
	encodeSink []byte
	keySink    string
)

func BenchmarkEncodeAnalyzeDetail(b *testing.B) {
	resp, err := Analyze(context.Background(), request100())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := Encode(resp)
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = body
	}
}

func BenchmarkCacheKey(b *testing.B) {
	canon, err := request100().Canonicalize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = canon.CacheKey()
	}
}
