package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"ringsched/internal/message"
	"ringsched/internal/ringstate"
	"ringsched/internal/service"
)

// Shape of the rings-edit workload.
const (
	ringSeedStreams = 50
	ringMinStreams  = 40
	ringMaxStreams  = 60
	ringBandwidth   = 16.0 // Mbps
	ringUtilization = 0.4  // of the seed set, at ringBandwidth
	ringGetEvery    = 10
	ringReplayOps   = 2000 // operations replayed per ladder pass
)

type ringOpKind uint8

const (
	opModify ringOpKind = iota
	opAdd
	opRemove
	opGet
)

var ringOpNames = [...]string{opModify: "modify", opAdd: "add", opRemove: "remove", opGet: "get"}

// ringOp is one scripted /v1/rings operation. Stream IDs and versions
// are known in advance: a ring numbers its seed streams 1..n, gives each
// added stream the next ID, starts at version 1 and bumps the version on
// every edit, and every scripted edit succeeds.
type ringOp struct {
	kind    ringOpKind
	id      uint64 // the stream modified, removed or added
	version uint64 // the CAS version the edit expects
	stream  service.StreamSpec
	method  string
	suffix  string // path after /v1/rings/{ring}
	body    []byte
}

// ringGen is one client's ring: its seed streams, and its edit script
// generated one operation at a time, so a run holds no script in memory.
// The mix is 50% modify, 25% add and 25% remove, with the ring kept
// within [ringMinStreams, ringMaxStreams], and every ringGetEvery-th
// operation is a GET of the ring. ids and version are the ring's state
// after the operations generated so far.
type ringGen struct {
	seed       []service.StreamSpec
	rng        *rand.Rand
	pmin, pmax float64
	ids        []uint64
	nextID     uint64
	version    uint64
	k          int
}

func newRingGen(seed int64, client int) (*ringGen, error) {
	rng := rand.New(rand.NewSource(splitmix(seed, 100+uint64(client))))
	gen := message.Generator{Streams: ringSeedStreams, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rng)
	if err != nil {
		return nil, err
	}
	if set, err = set.ScaleToUtilization(ringUtilization, ringBandwidth*1e6); err != nil {
		return nil, err
	}
	g := &ringGen{seed: streamSpecs(set), rng: rng, ids: make([]uint64, len(set)), nextID: uint64(len(set) + 1), version: 1}
	g.pmin, g.pmax = gen.PeriodBounds()
	for i := range g.ids {
		g.ids[i] = uint64(i + 1)
	}
	return g, nil
}

func (g *ringGen) newStream() service.StreamSpec {
	period := g.pmin + g.rng.Float64()*(g.pmax-g.pmin)
	util := ringUtilization / ringSeedStreams * (0.5 + g.rng.Float64())
	return service.StreamSpec{Name: "e" + strconv.Itoa(g.k), PeriodMs: period * 1e3, LengthBits: util * ringBandwidth * 1e6 * period}
}

// next generates the next operation and advances the ring's state.
func (g *ringGen) next() (ringOp, error) {
	defer func() { g.k++ }()
	if g.k%ringGetEvery == ringGetEvery-1 {
		return ringOp{kind: opGet, method: http.MethodGet}, nil
	}
	kind := opModify
	switch r := g.rng.Float64(); {
	case r >= 0.75:
		kind = opRemove
	case r >= 0.5:
		kind = opAdd
	}
	if kind == opAdd && len(g.ids) >= ringMaxStreams {
		kind = opRemove
	} else if kind == opRemove && len(g.ids) <= ringMinStreams {
		kind = opAdd
	}
	op := ringOp{kind: kind, version: g.version}
	switch kind {
	case opModify:
		op.id = g.ids[g.rng.Intn(len(g.ids))]
		op.stream = g.newStream()
		op.method, op.suffix = http.MethodPut, "/streams/s"+strconv.FormatUint(op.id, 10)
	case opAdd:
		op.id = g.nextID
		g.nextID++
		g.ids = append(g.ids, op.id)
		op.stream = g.newStream()
		op.method, op.suffix = http.MethodPost, "/streams"
	case opRemove:
		i := g.rng.Intn(len(g.ids))
		op.id = g.ids[i]
		g.ids = append(g.ids[:i], g.ids[i+1:]...)
		op.method = http.MethodDelete
		op.suffix = "/streams/s" + strconv.FormatUint(op.id, 10) + "?expectedVersion=" + strconv.FormatUint(g.version, 10)
	}
	if kind != opRemove {
		var err error
		if op.body, err = json.Marshal(service.RingEditRequest{ExpectedVersion: g.version, Stream: op.stream}); err != nil {
			return ringOp{}, err
		}
	}
	g.version++
	return op, nil
}

// state returns the wire IDs of the ring's streams.
func (g *ringGen) idSet() map[string]bool {
	ids := make(map[string]bool, len(g.ids))
	for _, id := range g.ids {
		ids["s"+strconv.FormatUint(id, 10)] = true
	}
	return ids
}

func (g *ringGen) createBody() ([]byte, error) {
	return json.Marshal(service.RingCreateRequest{
		Protocols: service.AllProtocols(), BandwidthMbps: ringBandwidth, Streams: g.seed,
	})
}

func decodeRing(body []byte) (service.RingResponse, error) {
	var r service.RingResponse
	err := json.Unmarshal(body, &r)
	return r, err
}

// ringsSetup is a server with one freshly created ring per client.
type ringsSetup struct {
	srv   *server
	rings []string
}

func runRingsEdit(e env) (*outcome, error) {
	o := &outcome{throughputName: "req_per_s"}
	gens := make([]*ringGen, e.clients)
	for c := range gens {
		g, err := newRingGen(e.seed, c)
		if err != nil {
			return nil, err
		}
		gens[c] = g
	}
	st, err := repeatSetup(o, func() (*ringsSetup, error) {
		srv, err := startServer(e.clients, e.rec)
		if err != nil {
			return nil, err
		}
		rs := &ringsSetup{srv: srv}
		var buf bytes.Buffer
		for _, g := range gens {
			id, err := createRing(srv, g, &buf)
			if err != nil {
				srv.close()
				return nil, err
			}
			rs.rings = append(rs.rings, id)
		}
		return rs, nil
	}, func(rs *ringsSetup) { rs.srv.close() })
	if err != nil {
		return nil, err
	}
	defer st.srv.close()

	bufs := make([]bytes.Buffer, e.clients)
	gen := make([]time.Duration, e.clients)
	op := func(c int) (float64, time.Duration, error) {
		g0 := time.Now()
		op, err := gens[c].next()
		t0 := time.Now()
		gen[c] += t0.Sub(g0)
		if err != nil {
			return 0, 0, err
		}
		_, err = ok2xx(st.srv.do(op.method, "/v1/rings/"+st.rings[c]+op.suffix, op.body, &bufs[c]))
		lat := time.Since(t0)
		if err != nil {
			return 0, lat, fmt.Errorf("%s s%d: %w", ringOpNames[op.kind], op.id, err)
		}
		return 1, lat, nil
	}
	if e.rec == nil {
		timedPhase(o, e.clients, e.seconds, op)
	} else {
		d := phaseSplit(e.seconds)
		u := timedPhase(o, e.clients, d, op)
		st.srv.tracing.Store(true)
		tracedPhase(o, u, e.clients, d, op)
		st.srv.tracing.Store(false)
		httpLayerMetrics(o, e.rec)
		if err := ringsLadder(e, o, st.srv, d); err != nil {
			return nil, err
		}
	}
	total := time.Duration(0)
	for c, g := range gens {
		total += gen[c]
		if err := checkRing(st.srv, st.rings[c], g); err != nil {
			o.problemf("ring %s: %v", st.rings[c], err)
		}
	}
	o.set("bench.input_gen_s", total.Seconds())
	return o, nil
}

// createRing posts a client's seed set and checks the ring starts where
// the generator assumes: version 1, streams s1..sn.
func createRing(srv *server, g *ringGen, buf *bytes.Buffer) (string, error) {
	body, err := g.createBody()
	if err != nil {
		return "", err
	}
	r, err := ok2xx(srv.do(http.MethodPost, "/v1/rings", body, buf))
	if err != nil {
		return "", fmt.Errorf("create ring: %w", err)
	}
	ring, err := decodeRing(r.body)
	if err != nil {
		return "", err
	}
	if err := sameRing(ring, g.idSet(), g.version); err != nil {
		return "", fmt.Errorf("new ring: %w", err)
	}
	return ring.ID, nil
}

func sameRing(ring service.RingResponse, ids map[string]bool, version uint64) error {
	if ring.Version != version {
		return fmt.Errorf("version %d, want %d", ring.Version, version)
	}
	if len(ring.Streams) != len(ids) {
		return fmt.Errorf("%d streams, want %d", len(ring.Streams), len(ids))
	}
	for _, s := range ring.Streams {
		if !ids[s.ID] {
			return fmt.Errorf("unexpected stream %s", s.ID)
		}
	}
	return nil
}

// checkRing requires the ring to hold exactly the state its generator
// reached, its snapshotKey to be the /v1/analyze cache key of its
// snapshot, and its verdicts to equal that analysis's.
func checkRing(srv *server, id string, g *ringGen) error {
	var buf bytes.Buffer
	r, err := ok2xx(srv.do(http.MethodGet, "/v1/rings/"+id, nil, &buf))
	if err != nil {
		return err
	}
	ring, err := decodeRing(r.body)
	if err != nil {
		return err
	}
	if err := sameRing(ring, g.idSet(), g.version); err != nil {
		return err
	}
	req := service.AnalyzeRequest{
		Protocols: ring.Protocols, BandwidthMbps: ring.BandwidthMbps, FaultModel: ring.FaultModel, Detail: true,
	}
	for _, s := range ring.Streams {
		req.Streams = append(req.Streams, service.StreamSpec{Name: s.Name, PeriodMs: s.PeriodMs, LengthBits: s.LengthBits})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	a, err := ok2xx(srv.do(http.MethodPost, "/v1/analyze", body, &buf))
	if err != nil {
		return fmt.Errorf("analyze snapshot: %w", err)
	}
	var analyzed service.AnalyzeResponse
	if err := json.Unmarshal(a.body, &analyzed); err != nil {
		return err
	}
	if ring.SnapshotKey != analyzed.CacheKey {
		return fmt.Errorf("snapshotKey %s, /v1/analyze cacheKey %s", ring.SnapshotKey, analyzed.CacheKey)
	}
	for i := range ring.Verdicts {
		for j := range ring.Verdicts[i].Streams {
			ring.Verdicts[i].Streams[j].ID = ""
		}
	}
	got, err := json.Marshal(ring.Verdicts)
	if err != nil {
		return err
	}
	want, err := json.Marshal(analyzed.Verdicts)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("ring verdicts differ from /v1/analyze verdicts of the same snapshot")
	}
	return nil
}

// ringsLadder replays the first ringReplayOps operations of client 0's
// script in process, once through the service handler on a fresh ring
// and once on a benchmark-owned ringstate.Store, until d has passed.
// Counts come from the first pass only, so they repeat exactly.
func ringsLadder(e env, o *outcome, srv *server, d time.Duration) error {
	rec := e.rec
	g, err := newRingGen(e.seed, 0)
	if err != nil {
		return err
	}
	ops := make([]ringOp, ringReplayOps)
	for i := range ops {
		if ops[i], err = g.next(); err != nil {
			return err
		}
	}
	createBody, err := g.createBody()
	if err != nil {
		return err
	}
	seed := make([]ringstate.Stream, len(g.seed))
	for i, s := range g.seed {
		seed[i] = ringstate.Stream{Name: s.Name, PeriodMs: s.PeriodMs, LengthBits: s.LengthBits}
	}
	cfg := ringstate.Config{Protocols: service.AllProtocols(), BandwidthMbps: ringBandwidth}

	var handlerAllocs, editAllocs, edits, reprobed uint64
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		// The /v1/rings handler, exactly as served, minus the network.
		w := httptest.NewRecorder()
		srv.handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rings", bytes.NewReader(createBody)))
		ring, err := decodeRing(w.Body.Bytes())
		if err != nil || w.Code != http.StatusCreated {
			return fmt.Errorf("in-process ring create: status %d: %v", w.Code, err)
		}
		reqs := make([]*http.Request, len(ops))
		recs := make([]*httptest.ResponseRecorder, len(ops))
		for i, op := range ops {
			var body io.Reader
			if op.body != nil {
				body = bytes.NewReader(op.body)
			}
			reqs[i] = httptest.NewRequest(op.method, "/v1/rings/"+ring.ID+op.suffix, body)
			recs[i] = httptest.NewRecorder()
		}
		m0 := mallocs()
		for i := range ops {
			t0 := time.Now()
			srv.handler.ServeHTTP(recs[i], reqs[i])
			rec.add(rec.id(), 0, 0, "service.handler", t0, time.Now())
		}
		if pass == 0 {
			handlerAllocs = mallocs() - m0
		}
		for i, op := range ops {
			if recs[i].Code/100 != 2 {
				o.problemf("in-process %s s%d: status %d", ringOpNames[op.kind], op.id, recs[i].Code)
				break
			}
		}
		srv.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v1/rings/"+ring.ID, nil))

		for _, op := range ops {
			if op.body == nil {
				continue
			}
			var req service.RingEditRequest
			t0 := time.Now()
			dec := json.NewDecoder(bytes.NewReader(op.body))
			dec.DisallowUnknownFields()
			err := dec.Decode(&req)
			rec.add(rec.id(), 0, 0, "service.decode", t0, time.Now())
			if err != nil {
				return err
			}
		}

		// The same edits on a benchmark-owned store.
		store := ringstate.NewStore(0, 0)
		r, err := store.Create(cfg, seed)
		if err != nil {
			return err
		}
		m0 = mallocs()
		for _, op := range ops {
			if op.kind == opGet {
				continue
			}
			s := ringstate.Stream{Name: op.stream.Name, PeriodMs: op.stream.PeriodMs, LengthBits: op.stream.LengthBits}
			var delta *ringstate.Delta
			t0 := time.Now()
			switch op.kind {
			case opAdd:
				_, _, delta, err = r.AddStream(op.version, s)
			case opModify:
				_, delta, err = r.ModifyStream(op.version, op.id, s)
			case opRemove:
				_, delta, err = r.RemoveStream(op.version, op.id)
			}
			rec.add(rec.id(), 0, 0, "ringstate."+ringOpNames[op.kind], t0, time.Now())
			if err != nil {
				return fmt.Errorf("ringstate %s s%d: %w", ringOpNames[op.kind], op.id, err)
			}
			if pass == 0 {
				edits++
				reprobed += uint64(delta.Reprobed)
			}
		}
		if pass == 0 {
			editAllocs = mallocs() - m0
		}
	}

	// The handler's self time takes each rung's total time below it, per
	// handler call: decode runs for adds and modifies only, an edit for
	// every operation but a GET.
	stats := summarize(rec.snapshot())
	handler := stats["service.handler"]
	below := stats["service.decode"].totalNs
	for _, k := range []ringOpKind{opAdd, opModify, opRemove} {
		name := "ringstate." + ringOpNames[k]
		o.set(name+"_us", stats[name].meanUS())
		below += stats[name].totalNs
	}
	o.set("ringstate.reprobed_per_edit", float64(reprobed)/float64(edits))
	o.set("ringstate.edit_allocs", float64(editAllocs)/float64(edits))
	o.set("service.handler_us", handler.meanUS())
	o.set("service.handler_allocs", float64(handlerAllocs)/float64(len(ops)))
	o.set("service.decode_us", stats["service.decode"].meanUS())
	o.set("service.handler_self_us", float64(handler.totalNs-below)/float64(handler.n)/1e3)
	return nil
}
