package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline/csparql"
	"repro/internal/baseline/rel"
	"repro/internal/bench/harness"
	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// The oracle checks every answer the daemons return against evaluators that
// share no code with the engine's query path: one-shot answers against the
// relational operators of internal/baseline/rel, continuous firings against
// the C-SPARQL baseline (internal/baseline/csparql, no overhead charges).

// slab holds the triples of one index key in the order they became visible,
// with the version from which each is visible (non-decreasing).
type slab struct {
	ts  []strserver.EncodedTriple
	ver []int
}

func (s *slab) upTo(ver int) []strserver.EncodedTriple {
	return s.ts[:sort.SearchInts(s.ver, ver+1)]
}

type pairKey struct{ a, b rdf.ID }

// graph is the oracle's copy of the stored graph. Version 0 is the loaded
// graph; each later version adds the timeless stream tuples one absorption
// step made visible.
type graph struct {
	ss   *strserver.Server
	byP  map[rdf.ID]*slab
	bySP map[pairKey]*slab
	byPO map[pairKey]*slab
}

func newGraph(ss *strserver.Server) *graph {
	return &graph{
		ss:   ss,
		byP:  make(map[rdf.ID]*slab),
		bySP: make(map[pairKey]*slab),
		byPO: make(map[pairKey]*slab),
	}
}

func (g *graph) add(t strserver.EncodedTriple, ver int) {
	put := func(s *slab) {
		s.ts = append(s.ts, t)
		s.ver = append(s.ver, ver)
	}
	get := func(m map[pairKey]*slab, k pairKey) *slab {
		s := m[k]
		if s == nil {
			s = &slab{}
			m[k] = s
		}
		return s
	}
	p := g.byP[t.P]
	if p == nil {
		p = &slab{}
		g.byP[t.P] = p
	}
	put(p)
	put(get(g.bySP, pairKey{t.P, t.S}))
	put(get(g.byPO, pairKey{t.P, t.O}))
}

// answer evaluates a basic-graph-pattern query over the graph as of ver and
// returns its rows rendered like the server renders them, sorted. Patterns
// are matched with rel.Match and combined with rel.Join; a pattern whose
// variable is already bound reads only the index entries of the bound
// values, so an anchored query touches what it needs instead of whole
// predicate tables.
func (g *graph) answer(q *sparql.Query, ver int) ([]string, error) {
	if len(q.Optionals) > 0 || len(q.Unions) > 0 || len(q.Filters) > 0 || q.HasAggregates() {
		return nil, fmt.Errorf("oracle: only basic graph patterns are supported")
	}
	pats := make([]rel.Pattern, 0, len(q.Patterns))
	for _, p := range q.Patterns {
		cp, ok, err := rel.CompilePattern(p, g.ss)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // an unknown constant: no answers
		}
		pats = append(pats, cp)
	}
	if len(pats) == 0 {
		return nil, nil
	}
	// Start from the constant-anchored pattern with the fewest candidates.
	first, best := 0, -1
	for i, cp := range pats {
		if cp.SVar != "" && cp.OVar != "" {
			continue
		}
		if n := len(g.candidates(cp, nil, ver)); best < 0 || n < best {
			first, best = i, n
		}
	}
	acc := rel.Match(g.candidates(pats[first], nil, ver), pats[first])
	used := make([]bool, len(pats))
	used[first] = true
	for done := 1; done < len(pats); done++ {
		next := -1
		for i, cp := range pats {
			if !used[i] && (acc.Col(cp.SVar) >= 0 || acc.Col(cp.OVar) >= 0) {
				next = i
				break
			}
		}
		if next < 0 {
			for i := range pats {
				if !used[i] {
					next = i
					break
				}
			}
		}
		used[next] = true
		acc = rel.Join(acc, rel.Match(g.candidates(pats[next], acc, ver), pats[next]))
	}
	return render(q, acc, g.ss)
}

// candidates returns the triples that can match cp as of ver: one index
// entry for a constant, the entries of the values acc binds for a joined
// variable, or the whole predicate table.
func (g *graph) candidates(cp rel.Pattern, acc *exec.Table, ver int) []strserver.EncodedTriple {
	lookup := func(m map[pairKey]*slab, c rdf.ID) []strserver.EncodedTriple {
		if s := m[pairKey{cp.Pid, c}]; s != nil {
			return s.upTo(ver)
		}
		return nil
	}
	gather := func(m map[pairKey]*slab, col int) []strserver.EncodedTriple {
		var out []strserver.EncodedTriple
		seen := make(map[rdf.ID]bool)
		for _, row := range acc.Rows {
			if v := row[col]; !seen[v] {
				seen[v] = true
				out = append(out, lookup(m, v)...)
			}
		}
		return out
	}
	switch {
	case cp.SVar == "":
		return lookup(g.bySP, cp.SConst)
	case cp.OVar == "":
		return lookup(g.byPO, cp.OConst)
	case acc != nil && acc.Col(cp.SVar) >= 0:
		return gather(g.bySP, acc.Col(cp.SVar))
	case acc != nil && acc.Col(cp.OVar) >= 0:
		return gather(g.byPO, acc.Col(cp.OVar))
	}
	if s := g.byP[cp.Pid]; s != nil {
		return s.upTo(ver)
	}
	return nil
}

// render projects a table like the server does: one line per row, cells
// joined by spaces.
func render(q *sparql.Query, t *exec.Table, ss *strserver.Server) ([]string, error) {
	rs, err := exec.Project(q, t, ss)
	if err != nil {
		return nil, err
	}
	return renderSet(rs, ss), nil
}

func renderSet(rs *exec.ResultSet, ss *strserver.Server) []string {
	out := make([]string, 0, len(rs.Rows))
	parts := make([]string, 0, 4)
	for _, row := range rs.Rows {
		parts = parts[:0]
		for _, v := range row {
			parts = append(parts, ss.MustEntity(v.ID).Value)
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

// windowOracle evaluates continuous queries with the C-SPARQL baseline over
// the stored graph and the stream tuples the loop sent.
type windowOracle struct {
	sys     *csparql.System
	ss      *strserver.Server
	streams []string
	feed    *harness.Feeder
}

// newWindowOracle replays the batches of the given steps, in order, into a
// feeder: each step's batch of a stream covers the step's interval.
func newWindowOracle(ss *strserver.Server, stored []strserver.EncodedTriple, streams []string, steps []*stepRecord) *windowOracle {
	sys := csparql.NewSystem(ss)
	sys.LoadBase(stored)
	sent := make(map[string]map[rdf.Timestamp][]strserver.EncodedTuple)
	for _, name := range streams {
		sent[name] = make(map[rdf.Timestamp][]strserver.EncodedTuple)
	}
	for _, st := range steps {
		for _, b := range st.in.batches {
			sent[b.stream][st.in.at] = b.enc
		}
	}
	feed := harness.NewFeeder(streams, func(stream string, _, to rdf.Timestamp) []strserver.EncodedTuple {
		return sent[stream][to]
	})
	for _, st := range steps {
		feed.AdvanceTo(st.in.at)
	}
	return &windowOracle{sys: sys, ss: ss, streams: streams, feed: feed}
}

// firing returns the sorted rows of q's window execution at boundary at. Only
// the tuples inside each window reach the baseline (it scans what it gets).
//
// The engine's windows are half-open like its mini-batches: the firing at
// `at` covers [at-range, at) (stream.Source.BatchOf). The baseline reads a
// window as (end-range, end], so it runs at end = at-1, which on integer
// millisecond timestamps is the same set of tuples.
func (o *windowOracle) firing(q *sparql.Query, at rdf.Timestamp) ([]string, error) {
	at--
	w := rel.Windows{}
	for _, name := range o.streams {
		if win, ok := q.Window(name); ok {
			w[name] = o.feed.Window(name, at-rdf.Timestamp(win.Range.Milliseconds()), at)
		}
	}
	rs, _, err := o.sys.ExecuteContinuous(q, w, at)
	if err != nil {
		return nil, err
	}
	return renderSet(rs, o.ss), nil
}

// sameRows compares two sorted row lists and describes the first difference.
func sameRows(got, want []string) (bool, string) {
	if len(got) == len(want) {
		equal := true
		for i := range got {
			if got[i] != want[i] {
				equal = false
				break
			}
		}
		if equal {
			return true, ""
		}
	}
	extra, missing := diffRows(got, want)
	return false, fmt.Sprintf("got %d rows, want %d (unexpected %q, missing %q)", len(got), len(want), extra, missing)
}

// diffRows returns up to three rows only in got and up to three only in want.
func diffRows(got, want []string) (extra, missing []string) {
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j >= len(want) || (i < len(got) && got[i] < want[j]):
			if len(extra) < 3 {
				extra = append(extra, got[i])
			}
			i++
		case i >= len(got) || want[j] < got[i]:
			if len(missing) < 3 {
				missing = append(missing, want[j])
			}
			j++
		default:
			i++
			j++
		}
	}
	return extra, missing
}
