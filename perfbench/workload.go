package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/bench/lsbench"
	"repro/internal/client"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// spec describes one workload. All workloads share one closed loop over one
// client connection. A step advances logical time by one 100 ms batch:
//
//  1. EMIT each stream's tuples for the step,
//  2. ADVANCE the clock to the step's boundary,
//  3. POLL every continuous query,
//  4. run the step's one-shot queries.
//
// The mix of those parts is what differs between workloads.
type spec struct {
	name    string
	members int // 1: one daemon; more: a cluster, driven through rank 1
	gen     lsbench.Config
	streams []string // streams registered and emitted every step
	cqs     []cqSpec
	// queryKinds lists the S-queries the queriesPerStep one-shot queries of
	// each step cycle through; each query's anchor is drawn from the seed.
	queryKinds     []int
	queriesPerStep int
	// staleVersions is how many absorption steps a one-shot answer may lag
	// the client's last acked write: 0 for one daemon; a cluster query that
	// is forwarded to its owner may see the owner's slightly older replica.
	staleVersions int
	// stepsPerSec is how many timed steps a run makes per second of
	// --seconds. A run is a fixed number of steps, not a fixed time, so every
	// build under test does the same work on the same growing graph; the
	// rate is calibrated so a run takes about --seconds on a 2-core host.
	stepsPerSec float64
}

// minSteps keeps a short run, such as the smoke test's, long enough for
// every metric to have samples.
const minSteps = 10

// timedSteps is the number of timed steps of a run of length dur.
func (sp spec) timedSteps(dur time.Duration) int {
	return max(minSteps, int(sp.stepsPerSec*dur.Seconds()))
}

// cqSpec is continuous query L<n>, anchored at user start for L1–L3.
type cqSpec struct{ n, start int }

const (
	stepMS    = 100 // the LSBench mini-batch interval (lsbench.StreamConfigs)
	warmSteps = 12  // untimed steps that fill every 1 s window before timing
	setupReps = 3   // set-ups per run; setup_s is their median
)

var workloads = map[string]spec{
	// The paper's path: stream admission, injection, the stream index, the
	// transient store, the VTS trigger, delta firing and garbage collection,
	// under every LSBench stream at 1x rate.
	"cq-window": {
		name:    "cq-window",
		members: 1,
		streams: lsbench.Streams(),
		cqs: []cqSpec{
			{1, 11}, {1, 222}, {1, 433}, {1, 644},
			{2, 11}, {2, 222}, {2, 433}, {2, 644},
			{3, 11}, {3, 222}, {3, 433}, {3, 644},
			{4, 0}, {5, 0}, {6, 0},
		},
		queryKinds:     []int{1, 2, 3, 5},
		queriesPerStep: 8,
		stepsPerSec:    26,
	},
	// One-shot reads over a graph 5x larger, with a thin timeless trickle
	// that keeps snapshots moving: one PO/PO-L step per 60 queries. The L4
	// query is there only so the workload reports a result latency.
	"oneshot-store": {
		name:           "oneshot-store",
		members:        1,
		gen:            lsbench.Config{Users: 5000, RatePO: 200, RatePOL: 200},
		streams:        []string{lsbench.StreamPO, lsbench.StreamPOL},
		cqs:            []cqSpec{{4, 0}},
		queryKinds:     []int{1, 2, 3, 4, 5, 6},
		queriesPerStep: 60,
		stepsPerSec:    5.3,
	},
	// Acked writes beside user-anchored reads on a non-authority member of
	// a three-daemon cluster: the only workload on the cluster and wire
	// layers. BENCHMARK.json leaves it out while the daemons still lose
	// the odd forwarded read (README.md).
	"cluster-mixed": {
		name:           "cluster-mixed",
		members:        3,
		gen:            lsbench.Config{RatePO: 1000, RatePOL: 1000},
		streams:        []string{lsbench.StreamPO, lsbench.StreamPOL},
		cqs:            []cqSpec{{4, 0}},
		queryKinds:     []int{1, 2, 3, 5},
		queriesPerStep: 8,
		staleVersions:  2,
		stepsPerSec:    33,
	},
}

// batch is one stream's tuples for one step.
type batch struct {
	stream string
	enc    []strserver.EncodedTuple
	tuples []rdf.Tuple
	bytes  int // size of the EMIT body on the wire
}

type queryIn struct {
	kind int
	text string
}

// stepInput is everything the generator makes for one step.
type stepInput struct {
	k       int
	at      rdf.Timestamp
	batches []batch
	queries []queryIn
}

// stepRecord is what the loop observed for one step.
type stepRecord struct {
	in       *stepInput
	timed    bool
	start    time.Time // first EMIT sent
	polled   time.Time // return of the step's last POLL
	answered int       // one-shot queries answered without error
	// deliveredIn is the last step whose POLLs returned rows @at (nil: none
	// did, and the firing was empty).
	deliveredIn *stepRecord
}

// queryRecord is one answered one-shot query, kept for the oracle.
type queryRecord struct {
	kind int
	text string
	ver  int      // absorption steps acked before the query was sent
	rows []string // as returned; the oracle sorts them
}

// call is one timed client call.
type call struct {
	kind  string
	start time.Time
	dur   time.Duration
	err   error
}

// session is one set-up of a workload: its daemons, the client connection,
// the input generator and everything observed.
type session struct {
	spec
	seed   int64
	traced bool
	f      *fleet
	ds     []*daemon
	entry  *daemon
	cl     *client.Client

	ss     *strserver.Server
	gen    *lsbench.Workload
	stored []strserver.EncodedTriple
	// loadBlocks is the stored graph as N-Triples LOAD bodies of loadChunk
	// triples, rendered before set-up is timed.
	loadBlocks []string
	// triples holds every triple generated so far. The generator may repeat a
	// triple (the same like twice); repeats are dropped before sending,
	// because an RDF graph is a set and the engine's multiplicity for a
	// duplicate edge depends on the plan (exploration checks an edge once,
	// expansion counts each copy), which no oracle can predict.
	triples map[strserver.EncodedTriple]bool
	// inputs holds the inputs of the steps not yet run, all made before
	// set-up is timed.
	inputs []*stepInput

	cqNames []string
	cqTexts []string
	polled  []map[rdf.Timestamp][]string // per CQ: boundary → rows

	steps   []*stepRecord
	byAt    map[rdf.Timestamp]*stepRecord
	queries []*queryRecord

	timing     bool // inside the timed phase
	calls      []call
	sentBytes  int64
	recvBytes  int64
	polledRows int
}

// loadChunk is the number of triples per LOAD request.
const loadChunk = 20000

// newSession generates and renders the workload's stored graph and the
// inputs of the warm-up steps, the given number of timed steps and the
// quiescent step. Generation is not part of set-up time: it is the
// benchmark's own work.
func newSession(sp spec, seed int64, f *fleet, traced bool, steps int) *session {
	cfg := sp.gen
	cfg.Seed = seed + 1 // lsbench treats seed 0 as "use the default"
	ss := strserver.New()
	w := lsbench.Generate(cfg, ss)
	s := &session{
		spec: sp, seed: seed, traced: traced, f: f,
		ss: ss, gen: w,
		byAt:    make(map[rdf.Timestamp]*stepRecord),
		triples: make(map[strserver.EncodedTriple]bool),
	}
	for _, t := range w.Initial {
		if !s.triples[t] {
			s.triples[t] = true
			s.stored = append(s.stored, t)
		}
	}
	var b strings.Builder
	for i := 0; i < len(s.stored); i += loadChunk {
		b.Reset()
		for _, e := range s.stored[i:min(i+loadChunk, len(s.stored))] {
			tr, err := ss.DecodeTriple(e)
			if err != nil {
				panic(fmt.Sprintf("generator: %v", err)) // the generator's own ids always decode
			}
			b.WriteString(tr.String())
			b.WriteString(" .\n")
		}
		s.loadBlocks = append(s.loadBlocks, b.String())
	}
	for _, c := range sp.cqs {
		s.cqTexts = append(s.cqTexts, w.QueryL(c.n, c.start))
		s.polled = append(s.polled, make(map[rdf.Timestamp][]string))
	}
	s.generate(warmSteps + steps + 1)
	return s
}

// generate makes the inputs of n steps from the seeded lsbench workload.
// They are all made before timing, so the timed loop shares the host with no
// generation work. Warm-up steps carry no one-shot queries: they fill the
// windows, and one-shot reads need no warming.
func (s *session) generate(n int) {
	rng := rand.New(rand.NewSource(s.seed*7919 + 17))
	nextKind := 0
	for k := 1; k <= n; k++ {
		in := &stepInput{k: k, at: rdf.Timestamp(k * stepMS)}
		from := in.at - stepMS
		for _, name := range s.streams {
			var enc []strserver.EncodedTuple
			for _, e := range s.gen.StreamTuples(name, from, in.at) {
				if timeless(name) {
					if s.triples[e.EncodedTriple] {
						continue
					}
					s.triples[e.EncodedTriple] = true
				}
				enc = append(enc, e)
			}
			b := batch{stream: name, enc: enc, tuples: make([]rdf.Tuple, len(enc))}
			for i, e := range enc {
				tr, err := s.ss.DecodeTriple(e.EncodedTriple)
				if err != nil {
					panic(fmt.Sprintf("generator: %v", err)) // the generator's own ids always decode
				}
				b.tuples[i] = rdf.Tuple{Triple: tr, TS: e.TS}
				// "<s> <p> <o> . @ts\n" without rendering it twice
				b.bytes += len(tr.S.Value) + len(tr.P.Value) + len(tr.O.Value) + 16
			}
			in.batches = append(in.batches, b)
		}
		for i := 0; k > warmSteps && i < s.queriesPerStep; i++ {
			kind := s.queryKinds[nextKind%len(s.queryKinds)]
			nextKind++
			in.queries = append(in.queries, queryIn{kind: kind, text: s.gen.QueryS(kind, rng.Intn(1<<30))})
		}
		s.inputs = append(s.inputs, in)
	}
}

// next returns the input of the next step.
func (s *session) next() *stepInput {
	in := s.inputs[0]
	s.inputs = s.inputs[1:]
	return in
}

// setup spawns the daemons and brings them to the first timed operation:
// LOAD, STREAM, REGISTER and the warm-up steps.
func (s *session) setup() error {
	trace := []string{}
	if s.traced {
		// Every request sampled; the ring holds every span of the traced
		// phase (traceCap).
		trace = []string{"-trace-sample", "1", "-trace-slow", "0", "-trace-cap", fmt.Sprint(traceCap)}
	}
	if s.members == 1 {
		d, err := s.f.spawn(0, false, trace...)
		if err != nil {
			return err
		}
		s.ds = []*daemon{d}
		s.entry = d
	} else {
		n := fmt.Sprint(s.members)
		seed, err := s.f.spawn(0, true, append([]string{"-nodes", n}, trace...)...)
		if err != nil {
			return err
		}
		s.ds = []*daemon{seed}
		for r := 1; r < s.members; r++ {
			d, err := s.f.spawn(r, true, append([]string{"-nodes", n, "-join", seed.wireAddr}, trace...)...)
			if err != nil {
				return err
			}
			s.ds = append(s.ds, d)
		}
		s.entry = s.ds[1]
	}
	cl, err := s.entry.dial()
	if err != nil {
		return fmt.Errorf("dial %s: %w", s.entry.addr, err)
	}
	s.cl = cl
	if err := s.load(); err != nil {
		return err
	}
	for _, name := range s.streams {
		if err := s.cl.Stream(name, stepMS*time.Millisecond, lsbench.TimingPredicates(name)...); err != nil {
			return fmt.Errorf("STREAM %s: %w", name, err)
		}
	}
	for _, text := range s.cqTexts {
		name, err := s.cl.Register(text)
		if err != nil {
			return fmt.Errorf("REGISTER: %w", err)
		}
		s.cqNames = append(s.cqNames, name)
	}
	for i := 0; i < warmSteps; i++ {
		if err := s.step(s.next()); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i+1, err)
		}
	}
	return nil
}

// load sends the stored graph, pre-rendered by newSession.
func (s *session) load() error {
	for i, block := range s.loadBlocks {
		n, err := s.cl.Load(block)
		if err != nil {
			return fmt.Errorf("LOAD: %w", err)
		}
		if want := min(loadChunk, len(s.stored)-i*loadChunk); n != want {
			return fmt.Errorf("LOAD: server loaded %d of %d triples", n, want)
		}
	}
	return nil
}

// close ends the session's client and daemons.
func (s *session) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	for _, d := range s.ds {
		s.f.stop(d)
	}
}

// errWrite marks a failed EMIT or ADVANCE: the oracle can no longer know the
// state the daemons hold, so the loop ends there.
var errWrite = errors.New("acked write failed")

// do times one client call; inside the timed phase it is recorded.
func (s *session) do(kind string, sent int, fn func() (recv int, err error)) error {
	t0 := time.Now()
	recv, err := fn()
	d := time.Since(t0)
	if s.timing {
		s.calls = append(s.calls, call{kind: kind, start: t0, dur: d, err: err})
		s.sentBytes += int64(sent)
		s.recvBytes += int64(recv)
	}
	return err
}

// step runs one step of the loop.
func (s *session) step(in *stepInput) error {
	rec := &stepRecord{in: in, timed: s.timing, start: time.Now()}
	s.steps = append(s.steps, rec)
	s.byAt[in.at] = rec
	for _, b := range in.batches {
		b := b
		err := s.do("emit", b.bytes+len("EMIT  id=0123456789abcdef-0000\n.\n")+len(b.stream), func() (int, error) {
			return len("+OK emitted 0000\n"), s.cl.Emit(b.stream, b.tuples...)
		})
		if err != nil {
			return fmt.Errorf("%w: EMIT %s at %d: %v", errWrite, b.stream, in.at, err)
		}
	}
	cmd := fmt.Sprintf("ADVANCE %d\n", in.at)
	if err := s.do("advance", len(cmd), func() (int, error) {
		_, err := s.cl.Advance(in.at)
		return len("+OK now 000000\n"), err
	}); err != nil {
		return fmt.Errorf("%w: ADVANCE %d: %v", errWrite, in.at, err)
	}
	for i, name := range s.cqNames {
		var rows []client.FireRow
		err := s.do("poll", len("POLL \n")+len(name), func() (int, error) {
			var err error
			rows, err = s.cl.Poll(name)
			n := len("+OK 0 rows dropped 0\n.\n")
			for _, r := range rows {
				n += len(r.Row) + 8
			}
			return n, err
		})
		if err != nil {
			continue // counted as failed; the firing check then reports the gap
		}
		if s.timing {
			s.polledRows += len(rows)
		}
		s.deliver(i, rows, rec)
	}
	rec.polled = time.Now()
	for _, q := range in.queries {
		var rows []string
		err := s.do("query", len("QUERY\n\n.\n")+len(q.text), func() (int, error) {
			var err error
			rows, err = s.cl.Query(q.text)
			n := len("+OK 0 rows in 0µs\n.\n")
			for _, r := range rows {
				n += len(r) + 1
			}
			return n, err
		})
		if err != nil {
			continue // counted as failed; nothing to check
		}
		rec.answered++
		s.queries = append(s.queries, &queryRecord{kind: q.kind, text: q.text, ver: in.k, rows: rows})
	}
	return nil
}

// deliver files polled rows under their boundaries and marks each
// boundary's step as delivered in step by.
func (s *session) deliver(cq int, rows []client.FireRow, by *stepRecord) {
	for _, r := range rows {
		s.polled[cq][r.At] = append(s.polled[cq][r.At], r.Row)
		if st := s.byAt[r.At]; st != nil {
			st.deliveredIn = by
		}
	}
}

// drain polls every CQ once more, outside timing, so firings delivered late
// reach the oracle.
func (s *session) drain() error {
	by := &stepRecord{}
	for i, name := range s.cqNames {
		rows, err := s.cl.Poll(name)
		if err != nil {
			return fmt.Errorf("final POLL %s: %w", name, err)
		}
		s.deliver(i, rows, by)
	}
	by.polled = time.Now()
	return nil
}

func sortRows(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}
