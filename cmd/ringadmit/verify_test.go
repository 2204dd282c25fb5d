package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ringsched/internal/service"
	"ringsched/ringschedclient"
)

// TestVerifyHistory edits a live ring with awkward float parameters,
// then runs the -verify-history mode and requires it to certify
// bit-identical verdicts (compacted-trail replay is proven separately
// in the ringstate audit tests).
func TestVerifyHistory(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	c := ringschedclient.New(ts.URL, ringschedclient.Options{})
	ctx := context.Background()
	sess, _, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{
		BandwidthMbps: 4,
		FaultModel:    "loss:p=1e-3",
		Streams: []ringschedclient.RingStreamSpec{
			{Name: "gyro", PeriodMs: 10, LengthBits: 4096},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Non-representable thirds keep the float math honest.
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		re, err := sess.AddStream(ctx, ringschedclient.RingStreamSpec{
			PeriodMs: 10 + float64(i)/3, LengthBits: 4096 * float64(i+1),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, re.StreamID)
	}
	if _, err := sess.ModifyStream(ctx, ids[2], ringschedclient.RingStreamSpec{
		PeriodMs: 7.0 / 3, LengthBits: 9999,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RemoveStream(ctx, ids[5]); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run(context.Background(),
		[]string{"-base", ts.URL, "-verify-history", sess.ID()}, &out, io.Discard)
	if err != nil {
		t.Fatalf("verify-history failed: %v", err)
	}
	if !strings.Contains(out.String(), "verified: ring "+sess.ID()) {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestVerifyHistoryDetectsDivergence(t *testing.T) {
	live := []wireVerdict{{Protocol: "802.4", Schedulable: true, Utilization: 0.30000000000000004}}
	repl := []wireVerdict{{Protocol: "802.4", Schedulable: true, Utilization: 0.3}}
	if err := compareVerdicts(live, repl); err == nil {
		t.Fatal("0.30000000000000004 vs 0.3 must not compare equal")
	}
	// Sanity: identical verdicts pass, and stream order is ignored.
	a := wireStream{PeriodMs: 10, Schedulable: true}
	b := wireStream{PeriodMs: 20, Schedulable: false}
	l := []wireVerdict{{Protocol: "p", Streams: []wireStream{a, b}}}
	r := []wireVerdict{{Protocol: "p", Streams: []wireStream{b, a}}}
	if err := compareVerdicts(l, r); err != nil {
		t.Fatalf("order-insensitive compare failed: %v", err)
	}
}

func TestVerifyHistoryRequiresBase(t *testing.T) {
	err := run(context.Background(), []string{"-verify-history", "r1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-base") {
		t.Fatalf("want -base requirement error, got %v", err)
	}
}
