package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ringsched/internal/service"
)

// traceHeader carries "<trace>:<parent>" from the benchmark's client to
// its server-side span, so both ends of a request share one trace.
const traceHeader = "X-Perfbench-Span"

// server is an in-process ringschedd behind a loopback listener, plus a
// keep-alive client sized for the workload's client goroutines.
type server struct {
	svc     *service.Server
	handler http.Handler
	http    *http.Server
	base    string
	client  *http.Client
	served  chan error

	// tracing turns the server-side span around Handler().ServeHTTP on.
	tracing atomic.Bool
	rec     *recorder
}

// startServer serves service.New(service.Config{}).Handler() — the
// daemon's defaults — on 127.0.0.1 and returns once it is listening.
func startServer(clients int, rec *recorder) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:    service.New(service.Config{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		rec:    rec,
	}
	s.handler = s.svc.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(s.serve), ReadHeaderTimeout: 10 * time.Second}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// serve wraps the service handler with the benchmark's server-side span
// when tracing is on.
func (s *server) serve(w http.ResponseWriter, r *http.Request) {
	if !s.tracing.Load() {
		s.handler.ServeHTTP(w, r)
		return
	}
	trace, parent := parseTraceHeader(r.Header.Get(traceHeader))
	start := time.Now()
	s.handler.ServeHTTP(w, r)
	s.rec.add(trace, 0, parent, "http.handler", start, time.Now())
}

func parseTraceHeader(v string) (trace, parent uint64) {
	a, b, _ := strings.Cut(v, ":")
	trace, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return trace, parent
}

// close shuts the listener and the service down and waits for Serve to
// return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.svc.BeginDrain()
	_ = s.http.Shutdown(ctx) // a timeout here only leaves idle conns to Close below
	s.http.Close()
	s.svc.Close()
	s.client.CloseIdleConnections()
	<-s.served
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
}

// do sends one request and reads the whole body into buf, which is
// reset first. When the benchmark is tracing, the round trip is
// recorded as an http.roundtrip span that the server-side span names as
// its parent.
func (s *server) do(method, path string, body []byte, buf *bytes.Buffer) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	traced := s.tracing.Load()
	var trace, id uint64
	var start time.Time
	if traced {
		trace, id = s.rec.id(), s.rec.id()
		req.Header.Set(traceHeader, strconv.FormatUint(trace, 10)+":"+strconv.FormatUint(id, 10))
		start = time.Now()
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		s.rec.add(trace, id, 0, "http.roundtrip", start, time.Now())
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: buf.Bytes()}, nil
}

// ok2xx turns a non-2xx reply into an error.
func ok2xx(r reply, err error) (reply, error) {
	if err != nil {
		return r, err
	}
	if r.status < 200 || r.status > 299 {
		return r, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// metricValue scrapes one unlabelled sample from the service's
// Prometheus text at /metrics.
func (s *server) metricValue(name string) (float64, error) {
	var buf bytes.Buffer
	r, err := ok2xx(s.do(http.MethodGet, "/metrics", nil, &buf))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("metric " + name + " not found")
}
