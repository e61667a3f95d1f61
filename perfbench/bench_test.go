package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// buildDaemon compiles wukongsd from the enclosing repository once per test.
func buildDaemon(t *testing.T) *fleet {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "wukongsd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/wukongsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building wukongsd: %v\n%s", err, out)
	}
	return &fleet{bin: bin, workdir: dir}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryMetric runs every workload briefly in both modes and checks
// that each metric BENCHMARK.json names is emitted, finite and in its unit,
// that the run is correct and that nothing failed.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons for every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	f := buildDaemon(t)
	defer f.reap(false)
	for _, w := range bf.Workloads {
		sp, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			if traced {
				res, err = runTraced(f, sp, 7, 2*time.Second, f.workdir)
			} else {
				res, err = runEndToEnd(f, sp, 7, time.Second)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracleRejectsCorruption runs a short cq-window session whose outputs
// pass the oracle, then corrupts one recorded output at a time and expects
// the oracle to fail the run.
func TestOracleRejectsCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon")
	}
	f := buildDaemon(t)
	defer f.reap(false)
	s := newSession(workloads["cq-window"], 3, f, false, 5)
	defer s.close()
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.step(s.next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.check(); err != nil {
		t.Fatalf("clean run fails the oracle: %v", err)
	}

	// A one-shot answer with a row too many.
	q := s.queries[len(s.queries)-1]
	saved := q.rows
	q.rows = sortRows(append(append([]string(nil), q.rows...), "user0"))
	if err := s.check(); err == nil || !strings.Contains(err.Error(), "oracle: S") {
		t.Errorf("an extra query row passed the oracle: %v", err)
	}
	q.rows = saved

	// A firing missing one row: L4 (index 12) delivers rows every boundary.
	at := s.steps[len(s.steps)-1].in.at
	rows := s.polled[12][at]
	if len(rows) == 0 {
		t.Fatalf("L4 delivered no rows @%d", at)
	}
	s.polled[12][at] = rows[1:]
	if err := s.check(); err == nil || !strings.Contains(err.Error(), "firing") {
		t.Errorf("a firing with a missing row passed the oracle: %v", err)
	}
	s.polled[12][at] = rows

	// Rows delivered for a boundary the run never reached.
	s.polled[12][at+stepMS] = []string{"user1 post1 tag1"}
	if err := s.check(); err == nil {
		t.Error("rows for a future boundary passed the oracle")
	}
	delete(s.polled[12], at+stepMS)

	if err := s.check(); err != nil {
		t.Fatalf("restored run fails the oracle: %v", err)
	}
}

// TestPartitionSumsToRoot checks the self-time attribution on a span tree
// with nesting, a tie between siblings and a child outliving the root.
func TestPartitionSumsToRoot(t *testing.T) {
	span := func(name string, start, dur int64, kids ...*trace.TreeSpan) *trace.TreeSpan {
		return &trace.TreeSpan{Span: trace.Span{Name: name, Start: start, Dur: dur}, Children: kids}
	}
	root := span("server.emit", 0, 100,
		span("cluster.forward", 10, 50, span("seed.apply", 20, 10)),
		span("replica.apply", 50, 70))
	got := partition(root)
	want := map[string]time.Duration{"server.emit": 10, "cluster.forward": 30, "seed.apply": 10, "replica.apply": 50}
	var sum time.Duration
	for name, d := range got {
		sum += d
		if want[name] != d {
			t.Errorf("%s: got %v, want %v", name, d, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("parts sum to %v, want the root's 100ns", sum)
	}
}

// TestResultSampleEnds checks where a step's result-latency sample ends: at
// the return of the last POLL of the step that delivered its boundary's
// rows, or of its own step when the firing delivered none.
func TestResultSampleEnds(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	late := &stepRecord{in: &stepInput{}, timed: true, start: at(0), polled: at(30)}
	onTime := &stepRecord{in: &stepInput{}, timed: true, start: at(40), polled: at(70)}
	empty := &stepRecord{in: &stepInput{}, timed: true, start: at(80), polled: at(100)}
	late.deliveredIn, onTime.deliveredIn = onTime, onTime
	p := &phase{s: &session{steps: []*stepRecord{late, onTime, empty}}}
	got := statsOf(p).result
	want := samples{70 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: sample %v, want %v", i, got[i], want[i])
		}
	}
}
