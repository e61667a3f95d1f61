// Command perfbench is the repository benchmark: closed-loop LSBench
// workloads driven through internal/client against real wukongsd processes,
// with every answer checked against independent evaluators. See README.md.
//
//	bash perfbench/run.sh --workload cq-window --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase on the calibration host; sets the fixed number of timed steps")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from an untraced and a traced phase")
		bin      = flag.String("bin", "", "wukongsd binary to spawn")
		workdir  = flag.String("workdir", ".bench_build", "directory for daemon logs and trace dumps")
	)
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -bin <wukongsd> --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	f := &fleet{bin: *bin, workdir: *workdir}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		f.reap(true)
		fmt.Fprintf(os.Stderr, "perfbench: %v: daemons stopped\n", s)
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			f.reap(true)
			panic(r)
		}
	}()

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(f, sp, *seed, dur, *workdir)
	} else {
		res, err = runEndToEnd(f, sp, *seed, dur)
	}
	f.reap(err != nil || !res.Correct || res.Failed > 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// snapshot is one daemon's counters at a phase boundary.
type snapshot struct {
	m   map[string]float64
	cpu time.Duration
	mem memStats
}

func snap(d *daemon) (snapshot, error) {
	m, err := d.metrics()
	if err != nil {
		return snapshot{}, fmt.Errorf("daemon %d METRICS: %w", d.rank, err)
	}
	cpu, err := d.procCPU()
	if err != nil {
		return snapshot{}, err
	}
	mem, err := d.heap(false)
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{m: m, cpu: cpu, mem: mem}, nil
}

// phase is one measured run of a workload: set-up, timed loop, checks.
type phase struct {
	s         *session
	setups    []time.Duration // one per set-up
	start     time.Time
	elapsed   time.Duration // length of the timed loop
	before    []snapshot
	after     []snapshot
	heapBytes int64   // live heap of all daemons after the timed loop
	stealPct  float64 // share of host CPU time stolen during the timed loop
	trees     []trace.Tree
	checkErr  error // oracle verdict
	writeErr  error // the failed write that ended the loop early, if any
}

// delta sums a counter's change over the phase across daemons and across
// the counter's label variants (name{stream="PO"} and the like).
func (p *phase) delta(name string) float64 {
	var v float64
	for i := range p.after {
		v += family(p.after[i].m, name) - family(p.before[i].m, name)
	}
	return v
}

// family sums a series and all its labelled variants.
func family(m map[string]float64, name string) float64 {
	v := m[name]
	for k, x := range m {
		if strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return v
}

// measure sets the workload up reps times (keeping the last set-up), runs
// the given number of timed steps, then runs every check.
func measure(f *fleet, sp spec, seed int64, steps int, traced bool, reps int) (*phase, error) {
	p := &phase{}
	for rep := 0; rep < reps; rep++ {
		s := newSession(sp, seed, f, traced, steps)
		t0 := time.Now()
		err := s.setup()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		p.setups = append(p.setups, time.Since(t0))
		if rep < reps-1 {
			s.close()
			continue
		}
		p.s = s
	}
	s := p.s
	defer s.close()
	for _, d := range s.ds {
		sn, err := snap(d)
		if err != nil {
			return nil, err
		}
		p.before = append(p.before, sn)
	}

	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	s.timing = true
	p.start = time.Now()
	for i := 0; i < steps; i++ {
		if err := s.step(s.next()); err != nil {
			if !errors.Is(err, errWrite) {
				return nil, err
			}
			p.writeErr = err
			break
		}
	}
	p.elapsed = time.Since(p.start)
	s.timing = false
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	p.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))

	for _, d := range s.ds {
		sn, err := snap(d)
		if err != nil {
			return nil, err
		}
		p.after = append(p.after, sn)
		live, err := d.heap(true)
		if err != nil {
			return nil, err
		}
		p.heapBytes += live.HeapAlloc
	}
	if traced {
		trees, err := fetchSpans(s.entry)
		if err != nil {
			return nil, err
		}
		p.trees = trees
	}
	if p.writeErr != nil {
		p.checkErr = fmt.Errorf("not checked: %w", p.writeErr)
		return p, nil
	}
	// One quiescent step after timing: late firings are drained and a
	// cluster's members settle before they are compared.
	if err := s.step(s.next()); err != nil {
		return nil, fmt.Errorf("quiescent step: %w", err)
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	p.checkErr = s.check()
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups %v, timed %.2fs (%d steps, %d calls), checks %.2fs\n",
		sp.name, p.setups, p.elapsed.Seconds(), steps, len(s.calls), time.Since(t0).Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: %s: share of timed wall time by call: %s\n", sp.name, wallShares(p))
	return p, nil
}

// verdict turns a phase's checks and calls into the result's header fields.
// Failures are client errors plus faults the daemons counted while the
// client's own retries hid them.
func verdict(ps ...*phase) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range ps {
		if p.checkErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", p.checkErr)
		}
		for _, c := range p.s.calls {
			res.Attempted++
			if c.err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", c.kind, c.err)
			}
		}
		for _, name := range append(faultCounters, clusterFaults...) {
			if n := int64(p.delta(name)); n > 0 {
				res.Failed += n
				fmt.Fprintf(os.Stderr, "perfbench: daemons counted %d %s during the timed phase\n", n, name)
			}
		}
	}
	return res
}

// faultCounters are the daemons' counters of work lost or retried inside
// the system; clusterFaults are those only a cluster's members count.
var (
	faultCounters = []string{
		"server_emit_shed_total",
		"stream_dispatch_dropped_total",
		"cq_failed_executions_total",
	}
	clusterFaults = []string{
		"member_deaths_total",
		"seed_failover_total",
		"cluster_queries_partition_down_total",
	}
)

func runEndToEnd(f *fleet, sp spec, seed int64, dur time.Duration) (*result, error) {
	p, err := measure(f, sp, seed, sp.timedSteps(dur), false, setupReps)
	if err != nil {
		return nil, err
	}
	res := verdict(p)
	endToEnd(p, res.Metrics)
	return res, nil
}

func runTraced(f *fleet, sp spec, seed int64, dur time.Duration, workdir string) (*result, error) {
	steps := sp.timedSteps(dur / 2)
	plain, err := measure(f, sp, seed, steps, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := measure(f, sp, seed, steps, true, 1)
	if err != nil {
		return nil, err
	}
	bd, err := attribute(traced.s.calls, traced.trees)
	if err != nil {
		return nil, err
	}
	path, err := writeSpans(workdir, sp.name, seed, traced.s.calls, traced.trees)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	res := verdict(plain, traced)
	perLayer(plain, traced, bd, res.Metrics)
	return res, nil
}
