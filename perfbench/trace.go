package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/trace"
)

// tracedSpans are the daemon spans whose self time the traced run reports;
// clusterSpans exist only on a cluster's members.
var (
	tracedSpans  = []string{"server.emit", "server.advance", "server.query"}
	clusterSpans = []string{
		"cluster.forward", "serve.query", "exec.local",
		"seed.apply", "seed.replicate", "replica.apply",
	}
)

// traceCap sizes each traced daemon's span ring so that nothing of a traced
// phase is evicted: at --seconds 20 a phase makes at most about 7,500 calls
// of a handful of spans each. An evicted span leaves its call unmatched,
// which fails the run (attribute).
const traceCap = 1 << 17

// benchSpan is the benchmark's own span around one client call. Each call is
// its own trace.
type benchSpan struct {
	TraceID int    `json:"trace_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_unix_ns"`
	Dur     int64  `json:"duration_ns"`
	Err     string `json:"err,omitempty"`
}

// breakdown is the traced run's attribution of client call time.
type breakdown struct {
	self         map[string]time.Duration // per daemon span name, summed
	byKind       map[string]map[string]time.Duration
	unattributed time.Duration // client time outside the daemon's root span
	calls        int           // traced calls (EMIT, ADVANCE, QUERY)
	matched      int           // of which a daemon root span was found
}

// fetchSpans reads every span the daemons kept. A cluster member serves the
// federated pool of all members.
func fetchSpans(d *daemon) ([]trace.Tree, error) {
	hc := http.Client{Timeout: 60 * time.Second}
	resp, err := hc.Get("http://" + d.httpAddr + "/debug/traces?n=100000000")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc trace.TracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	if len(doc.Errors) > 0 {
		return nil, fmt.Errorf("/debug/traces: members failed: %v", doc.Errors)
	}
	return doc.Traces, nil
}

// attribute matches each daemon trace to the client call that caused it (the
// call is one connection's only request in flight, so the root span starts
// inside exactly one call) and splits the root span's interval among its
// spans: every instant goes to the deepest span active then. The parts sum
// to the root span; the client call's remaining time is unattributed.
func attribute(calls []call, trees []trace.Tree) (*breakdown, error) {
	b := &breakdown{self: map[string]time.Duration{}, byKind: map[string]map[string]time.Duration{}}
	type idx struct {
		c     *call
		found bool
	}
	var traced []*idx
	for i := range calls {
		switch calls[i].kind {
		case "emit", "advance", "query":
			traced = append(traced, &idx{c: &calls[i]})
		}
	}
	b.calls = len(traced)
	for _, tr := range trees {
		root := tr.Root
		if root == nil || root.Parent != 0 || len(root.Name) < 7 || root.Name[:7] != "server." {
			continue
		}
		i := sort.Search(len(traced), func(i int) bool { return traced[i].c.start.UnixNano() > root.Start }) - 1
		if i < 0 {
			continue
		}
		c := traced[i]
		end := c.c.start.UnixNano() + int64(c.c.dur)
		if root.Start > end || "server."+c.c.kind != root.Name || c.found {
			continue
		}
		c.found = true
		b.matched++
		parts := partition(root)
		if b.byKind[c.c.kind] == nil {
			b.byKind[c.c.kind] = map[string]time.Duration{}
		}
		for name, d := range parts {
			b.self[name] += d
			b.byKind[c.c.kind][name] += d
		}
		if un := c.c.dur - time.Duration(root.Dur); un > 0 {
			b.unattributed += un
		}
	}
	if b.matched < b.calls {
		return b, fmt.Errorf("trace: %d of %d traced calls have no daemon span (span ring too small?)", b.calls-b.matched, b.calls)
	}
	return b, nil
}

// partition splits the root's interval among the tree's spans by deepest
// active span.
func partition(root *trace.TreeSpan) map[string]time.Duration {
	type flat struct {
		name       string
		start, end int64
		depth      int
	}
	lo, hi := root.Start, root.Start+root.Dur
	var spans []flat
	var walk func(t *trace.TreeSpan, depth int)
	walk = func(t *trace.TreeSpan, depth int) {
		s, e := max(t.Start, lo), min(t.Start+t.Dur, hi)
		if e > s {
			spans = append(spans, flat{t.Name, s, e, depth})
		}
		for _, c := range t.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	cuts := make([]int64, 0, 2*len(spans))
	for _, sp := range spans {
		cuts = append(cuts, sp.start, sp.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		a, z := cuts[i], cuts[i+1]
		if z == a {
			continue
		}
		best := -1
		for j, sp := range spans {
			if sp.start <= a && sp.end >= z && (best < 0 || sp.depth > spans[best].depth ||
				(sp.depth == spans[best].depth && sp.start > spans[best].start)) {
				best = j
			}
		}
		if best >= 0 {
			out[spans[best].name] += time.Duration(z - a)
		}
	}
	return out
}

// writeSpans stores the benchmark's spans and the daemons' traces of a traced
// run under the work directory, for inspection after the run.
func writeSpans(dir, workload string, seed int64, calls []call, trees []trace.Tree) (string, error) {
	spans := make([]benchSpan, len(calls))
	for i, c := range calls {
		spans[i] = benchSpan{TraceID: i + 1, Name: "client." + c.kind, Start: c.start.UnixNano(), Dur: int64(c.dur)}
		if c.err != nil {
			spans[i].Err = c.err.Error()
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Client  []benchSpan  `json:"client"`
		Daemons []trace.Tree `json:"daemons"`
	}{spans, trees}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
