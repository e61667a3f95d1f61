package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/lsbench"
	"repro/internal/client"
	"repro/internal/sparql"
)

// check runs every correctness check of a session, outside the timed
// region. It returns the first mismatch as an error.
func (s *session) check() error {
	if err := s.checkQueries(); err != nil {
		return err
	}
	if err := s.checkFirings(); err != nil {
		return err
	}
	if err := s.checkFiringCount(); err != nil {
		return err
	}
	if s.members > 1 {
		return s.checkMembers()
	}
	return nil
}

// timeless reports whether a stream's tuples are absorbed into the stored
// graph (every LSBench stream but GPS, whose predicate is timing data).
func timeless(stream string) bool { return len(lsbench.TimingPredicates(stream)) == 0 }

// oracleGraph builds the stored graph with every timeless tuple at the
// version from which it is visible. The engine's mini-batches are half-open
// ([start, end), stream.Source.BatchOf), so a tuple stamped exactly at a
// step's boundary belongs to the next batch and is absorbed one step later.
func (s *session) oracleGraph() *graph {
	g := newGraph(s.ss)
	for _, t := range s.stored {
		g.add(t, 0)
	}
	for _, st := range s.steps {
		for _, b := range st.in.batches {
			if !timeless(b.stream) {
				continue
			}
			for _, e := range b.enc {
				g.add(e.EncodedTriple, int(e.TS)/stepMS+1)
			}
		}
	}
	return g
}

// checkWorkers is how many goroutines evaluate the oracle; the checks run
// after timing, while the daemons idle.
const checkWorkers = 2

// parallel runs fn(0..n-1) on checkWorkers goroutines and returns the error
// of the lowest failing index.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkQueries compares every one-shot answer with the rel oracle over the
// stored graph plus the timeless tuples absorbed before the query.
func (s *session) checkQueries() error {
	g := s.oracleGraph()
	parsed := make([]*sparql.Query, len(s.queries))
	byText := map[string]*sparql.Query{}
	for i, qr := range s.queries {
		q := byText[qr.text]
		if q == nil {
			var err error
			if q, err = sparql.Parse(qr.text); err != nil {
				return fmt.Errorf("oracle: parsing S%d: %w", qr.kind, err)
			}
			byText[qr.text] = q
		}
		parsed[i] = q
	}
	return parallel(len(s.queries), func(i int) error {
		qr := s.queries[i]
		got := sortRows(qr.rows)
		var why string
		for v := qr.ver; v >= qr.ver-s.staleVersions && v >= 0; v-- {
			want, err := g.answer(parsed[i], v)
			if err != nil {
				return err
			}
			ok, d := sameRows(got, want)
			if ok {
				return nil
			}
			if why == "" {
				why = d
			}
		}
		return fmt.Errorf("oracle: S%d after step %d: %s\nquery: %s", qr.kind, qr.ver, why, qr.text)
	})
}

// checkFirings compares every boundary's polled rows of every continuous
// query with the C-SPARQL baseline's execution of the same window.
func (s *session) checkFirings() error {
	o := newWindowOracle(s.ss, s.stored, s.streams, s.steps)
	queries := make([]*sparql.Query, len(s.cqTexts))
	for i, text := range s.cqTexts {
		q, err := sparql.Parse(text)
		if err != nil {
			return fmt.Errorf("oracle: parsing L%d: %w", s.cqs[i].n, err)
		}
		queries[i] = q
	}
	// One job per (query, step); a query's boundaries with rows must all be
	// steps of this run.
	for i := range s.cqNames {
		if delivered, steps := len(s.polled[i]), len(s.steps); delivered > steps {
			return fmt.Errorf("oracle: %s delivered rows for %d boundaries in %d steps", s.cqNames[i], delivered, steps)
		}
		for at := range s.polled[i] {
			if s.byAt[at] == nil {
				return fmt.Errorf("oracle: %s delivered rows @%d, not a boundary of this run", s.cqNames[i], at)
			}
		}
	}
	n := len(s.steps)
	return parallel(len(queries)*n, func(j int) error {
		i, at := j/n, s.steps[j%n].in.at
		want, err := o.firing(queries[i], at)
		if err != nil {
			return err
		}
		if ok, why := sameRows(sortRows(s.polled[i][at]), want); !ok {
			return fmt.Errorf("oracle: %s firing @%d: %s", s.cqNames[i], at, why)
		}
		return nil
	})
}

// checkFiringCount holds every continuous query to exactly one firing per
// boundary: empty firings deliver no rows, so the engine's own execution
// counter is the witness, summed over every member that fires.
func (s *session) checkFiringCount() error {
	if len(s.cqNames) == 0 {
		return nil
	}
	boundaries := int64(len(s.steps))
	for _, d := range s.ds {
		m, err := d.metrics()
		if err != nil {
			return err
		}
		got := int64(m["cq_executions_total"])
		want := boundaries * int64(len(s.cqNames))
		if got != want {
			return fmt.Errorf("oracle: daemon %d ran %d CQ executions over %d boundaries of %d queries, want %d", d.rank, got, boundaries, len(s.cqNames), want)
		}
	}
	return nil
}

// checkMembers ends a cluster run with a quiescent step, then requires every
// member to have applied the same op sequence and to give the same answers.
func (s *session) checkMembers() error {
	deadline := time.Now().Add(30 * time.Second)
	var applied []uint64
	for {
		applied = applied[:0]
		for _, d := range s.ds {
			a, err := d.applied()
			if err != nil {
				return err
			}
			applied = append(applied, a)
		}
		same := true
		for _, a := range applied[1:] {
			same = same && a == applied[0]
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("oracle: members did not converge on one applied seq: %v", applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
	g := s.oracleGraph()
	last := s.steps[len(s.steps)-1].in.k
	for u := 0; u < 8; u++ {
		for _, kind := range s.queryKinds {
			text := s.gen.QueryS(kind, u*97+int(s.seed%89))
			q, err := sparql.Parse(text)
			if err != nil {
				return err
			}
			want, err := g.answer(q, last)
			if err != nil {
				return err
			}
			for _, d := range s.ds {
				c, err := client.Dial(d.addr)
				if err != nil {
					return err
				}
				rows, err := c.Query(text)
				c.Close()
				if err != nil {
					return fmt.Errorf("oracle: member %d: %w", d.rank, err)
				}
				if ok, why := sameRows(sortRows(rows), want); !ok {
					return fmt.Errorf("oracle: member %d after the quiescent step, S%d: %s", d.rank, kind, why)
				}
			}
		}
	}
	return nil
}

// applied reads a cluster member's applied op sequence from /healthz.
func (d *daemon) applied() (uint64, error) {
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + d.httpAddr + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Applied uint64 `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("daemon %d /healthz: %w", d.rank, err)
	}
	return h.Applied, nil
}
