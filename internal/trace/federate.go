package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the cross-process half of the tracer: span records that
// X-Ringsched-Trace scattered over several processes' span rings are
// fetched, merged, deduplicated, and assembled into one tree, so a single
// GET /debug/traces?trace=<id> against any member (or the front door)
// reconstructs an entire lb → replica → peer-fill request.

// Query filters span records on the /debug/traces surface.
type Query struct {
	// Trace narrows to one trace ID ("" = all retained spans).
	Trace string
	// Name narrows to spans with this exact operation name.
	Name string
	// MinDurUS drops spans shorter than this many microseconds.
	MinDurUS float64
	// Limit keeps only the most recent N matching spans (0 = all).
	Limit int
}

// ParseQuery reads the wire query parameters (trace, name, limit,
// minDurMs) into a Query.
func ParseQuery(get func(string) string) (Query, error) {
	q := Query{Trace: get("trace"), Name: get("name")}
	if raw := get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return Query{}, fmt.Errorf("trace: bad limit %q: want a non-negative integer", raw)
		}
		q.Limit = n
	}
	if raw := get("minDurMs"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			return Query{}, fmt.Errorf("trace: bad minDurMs %q: want a non-negative number", raw)
		}
		q.MinDurUS = ms * 1e3
	}
	return q, nil
}

// Match reports whether one record passes the query's per-span filters
// (Limit is applied by Filter, not here).
func (q Query) Match(rec Record) bool {
	if q.Trace != "" && rec.TraceID != q.Trace {
		return false
	}
	if q.Name != "" && rec.Name != q.Name {
		return false
	}
	if q.MinDurUS > 0 && rec.DurationUS < q.MinDurUS {
		return false
	}
	return true
}

// Filter applies the query to an oldest-first record slice, keeping the
// most recent Limit matches.
func Filter(recs []Record, q Query) []Record {
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if q.Match(rec) {
			out = append(out, rec)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Merge concatenates record groups, deduplicating by (trace, span) ID —
// the lb's fan-out and a replica's peer scatter can both surface the same
// span — and returns the union ordered by start time. Earlier groups win
// dedup ties, so a caller puts its own (already member-stamped) records
// first to keep local attribution.
func Merge(groups ...[]Record) []Record {
	type key struct{ trace, span string }
	seen := map[key]bool{}
	var out []Record
	for _, g := range groups {
		for _, rec := range g {
			k := key{rec.TraceID, rec.SpanID}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Node is one span with its children — the assembled form of a trace.
type Node struct {
	Record
	Children []*Node `json:"children,omitempty"`
}

// Assemble builds span trees from finished records: each span hangs under
// its parent; spans whose parent is absent (the roots, or spans whose
// parent fell out of a bounded ring) become top-level nodes. Children and
// roots are ordered by start time.
func Assemble(recs []Record) []*Node {
	nodes := make(map[string]*Node, len(recs))
	order := make([]*Node, 0, len(recs))
	for _, rec := range recs {
		if _, ok := nodes[rec.SpanID]; ok {
			continue
		}
		n := &Node{Record: rec}
		nodes[rec.SpanID] = n
		order = append(order, n)
	}
	var roots []*Node
	for _, n := range order {
		parent, ok := nodes[n.ParentID]
		if n.ParentID == "" || !ok || parent == n {
			roots = append(roots, n)
			continue
		}
		parent.Children = append(parent.Children, n)
	}
	byStart := func(ns []*Node) {
		sort.SliceStable(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].SpanID < ns[j].SpanID
		})
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots
}

// MemberSpans is one member's contribution to a federated trace query.
type MemberSpans struct {
	// Member is the member's advertise address (or display name).
	Member string `json:"member"`
	// Spans counts the records this member contributed.
	Spans int `json:"spans"`
	// Error reports a failed fetch; the merged result simply lacks this
	// member's spans.
	Error string `json:"error,omitempty"`
}

// DebugServer serves a span ring at /debug/traces with filtering and —
// when Peers/Fetch are wired — cluster-wide trace assembly: a ?trace=
// query fans out to every peer, merges the members' records into one
// deduplicated span list, annotates each record with its origin member,
// and assembles the span tree. Both ringschedd and ringsched-lb mount
// this same handler.
type DebugServer struct {
	// Ring holds this process's own finished spans.
	Ring *Ring
	// Self is the member label stamped on local spans ("local" when
	// unset).
	Self string
	// Peers lists the other members to scatter a ?trace= query to; nil
	// disables federation.
	Peers func() []string
	// Fetch retrieves one member's records for a trace. The callee must
	// suppress its own re-scatter when appropriate (the local=1 query
	// parameter); required when Peers is set. Fetch is called from one
	// goroutine per peer at once, so it must be safe for concurrent use.
	Fetch func(ctx context.Context, member, traceID string) ([]Record, error)
	// ScatterTimeout bounds the whole fan-out (default 2s).
	ScatterTimeout time.Duration
}

// tracesResponse is the /debug/traces wire shape. Total and the flat
// Spans list predate federation and keep their meaning; Tree and Members
// appear only on ?trace= queries.
type tracesResponse struct {
	Total    uint64        `json:"total"`
	Retained int           `json:"retained"`
	Spans    []Record      `json:"spans"`
	Tree     []*Node       `json:"tree,omitempty"`
	Members  []MemberSpans `json:"members,omitempty"`
}

// ServeHTTP implements the /debug/traces endpoint.
func (d *DebugServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	params := r.URL.Query()
	q, err := ParseQuery(params.Get)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		body, _ := json.Marshal(map[string]string{"error": err.Error(), "code": "bad_request"})
		w.Write(append(body, '\n'))
		return
	}

	self := d.Self
	if self == "" {
		self = "local"
	}
	var local []Record
	if q.Trace != "" {
		local = d.Ring.Trace(q.Trace)
	} else {
		local = d.Ring.Snapshot()
	}
	for i := range local {
		if local[i].Member == "" {
			local[i].Member = self
		}
	}

	resp := tracesResponse{Total: d.Ring.Total()}
	merged := local
	if q.Trace != "" && d.Peers != nil && params.Get("local") == "" {
		groups, members := d.scatter(r.Context(), q.Trace)
		resp.Members = append([]MemberSpans{{Member: self, Spans: len(local)}}, members...)
		merged = Merge(append([][]Record{local}, groups...)...)
	}
	merged = Filter(merged, q)
	if merged == nil {
		merged = []Record{}
	}
	resp.Retained = len(merged)
	resp.Spans = merged
	if q.Trace != "" {
		resp.Tree = Assemble(merged)
	}

	body, err := json.Marshal(resp)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		out, _ := json.Marshal(map[string]string{"error": err.Error(), "code": "internal"})
		w.Write(append(out, '\n'))
		return
	}
	w.Write(append(body, '\n'))
}

// scatter fans the trace query out to every peer concurrently and stamps
// fetched records with their origin member (unless the peer already
// attributed them — a peer's own federated answer carries members).
func (d *DebugServer) scatter(ctx context.Context, traceID string) ([][]Record, []MemberSpans) {
	timeout := d.ScatterTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	peers := d.Peers()
	sort.Strings(peers)
	groups := make([][]Record, len(peers))
	members := make([]MemberSpans, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			members[i].Member = peer
			recs, err := d.Fetch(ctx, peer, traceID)
			if err != nil {
				members[i].Error = err.Error()
				return
			}
			// "local" is the placeholder a standalone member stamps on
			// its own spans; from the fetching side the peer's address
			// is the meaningful attribution.
			for j := range recs {
				if recs[j].Member == "" || recs[j].Member == "local" {
					recs[j].Member = peer
				}
			}
			groups[i] = recs
			members[i].Spans = len(recs)
		}(i, peer)
	}
	wg.Wait()
	return groups, members
}
