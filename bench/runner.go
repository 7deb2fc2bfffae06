package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // divides every workload's sizes; 1 outside the smoke test
	setups   int    // set-up repetitions; setup_s is their median
	smoke    bool   // the smoke test's run: not pinned to one thread, no steady-state check
	outDir   string // traces and the runs' store directories
}

// env is what one set-up of a workload is built from.
type env struct {
	ctx   context.Context
	seed  int64
	scale int
	dir   string // this set-up's store directory, removed on close
	tr    *tracer
}

// scaled is n divided by the smoke test's scale, at least min.
func (e *env) scaled(n, min int) int {
	return max(n/e.scale, min)
}

// workload is one closed-loop workload. A value is one set-up: it is set up
// once, marked, stepped until the run ends, checked, reported and closed.
type workload interface {
	// setup opens the stores, registers the peers and warms the stack up,
	// calling lap between the rounds of its warm-up so that the host clock
	// ticks through a set-up as it does through the measured phase.
	setup(lap func()) error
	// mark takes the baselines the per-layer deltas start from.
	mark()
	// step runs the next operation (or lockstep pair of operations) and
	// logs each with its duration, failed or not.
	step(log *opLog)
	// check verifies the outputs and returns the checks that failed.
	check() []string
	// published is the number of transactions ever published into the
	// store directories.
	published() int
	// layers writes the per-layer metrics of the measured phase.
	layers(r *report, log *opLog)
	// close stops everything the set-up started.
	close()
}

var workloads = []struct {
	name, why string
	make      func(*env) workload
}{
	{"serve_stream", "gateway JSON, rpc/gob/TCP, watch wake-up and the stream step are on the blocking path; core does little", newServeStream},
	{"contended_rounds", "core.Engine (flatten, FindConflicts, DoGroup, soft state, resolve re-runs) does most of the work; no gateway, no rpc", newContendedRounds},
	{"fleet_groups", "200 small tenants on two shared reldb/WAL nodes: store calls through the fleet's routing (3 commits per txn) are the largest share of a round; engine work per group is small", newFleetGroups},
	{"recover_rebuild", "the read side of what the others write: WAL replay, reldb decode, cache load, snapshot decode, Engine.Restore", newRecoverRebuild},
}

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []string
	beside   []metricRow // an untraced run's raw times and diagnostics
}

// steadyLo and steadyHi bound driver.steady_ratio; outside them the
// workload is not in a steady state and the run fails its checks (README
// gives the ratios identical runs reach, per workload).
const steadyLo, steadyHi = 0.5, 2.0

// traceRefShare is the share of a traced run's measured phase that runs
// untraced first, as the reference driver.trace_overhead_share compares
// against.
const traceRefShare = 0.2

// measurement is the measured phase of one run: its steps, the ops as
// logged, and their durations corrected for the host's slowdown while each
// ran.
type measurement struct {
	tl            timeline
	log           *opLog
	opMs          []float64 // log.ms, corrected
	refOps        int       // a traced run's leading ops that ran untraced
	before, after procSnap
}

// measure steps the workload for cfg.seconds, probing the host between
// steps. A traced run measures an untraced reference stretch first, then
// turns the wrappers on.
func measure(cfg config, tr *tracer, w workload) *measurement {
	runtime.GC()
	m := &measurement{log: &opLog{}}
	w.mark()
	m.before = snapProcess()
	length := time.Duration(cfg.seconds * float64(time.Second))
	deadline := m.before.at.Add(length)
	traceFrom := m.before.at.Add(time.Duration(traceRefShare * float64(length)))
	var firstOp []int // per step
	m.tl.start()
	for {
		if cfg.trace && !tr.on.Load() && !time.Now().Before(traceFrom) {
			m.refOps = len(m.log.ms)
			tr.on.Store(true)
		}
		firstOp = append(firstOp, len(m.log.ms))
		w.step(m.log)
		if !time.Now().Before(deadline) {
			break
		}
		m.tl.lap()
	}
	m.tl.stop()
	tr.on.Store(false)
	m.after = snapProcess()

	m.opMs = append([]float64(nil), m.log.ms...)
	for i, st := range m.tl.steps {
		lastOp := len(m.opMs)
		if i+1 < len(firstOp) {
			lastOp = firstOp[i+1]
		}
		for j := firstOp[i]; j < lastOp; j++ {
			m.opMs[j] /= st.slow.wall
		}
	}
	return m
}

// runWorkload runs one workload once: set up (several times), measure for
// cfg.seconds, check, report.
func runWorkload(cfg config) (*result, error) {
	var mk func(*env) workload
	for _, w := range workloads {
		if w.name == cfg.workload {
			mk = w.make
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.smoke {
		// One thread on one CPU: what the box gives two threads changes
		// by the minute (README, finding 1).
		runtime.GOMAXPROCS(1)
		if err := pinToOneCPU(); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		w      workload
		e      *env
		setups []phaseTimes
	)
	discard := func() {
		if w != nil {
			w.close()
			os.RemoveAll(e.dir)
			w = nil
		}
	}
	defer discard()
	for i := 0; i < cfg.setups; i++ {
		discard()
		dir, err := newRunDir(cfg.outDir)
		if err != nil {
			return nil, err
		}
		e = &env{ctx: ctx, seed: cfg.seed, scale: cfg.scale, dir: dir, tr: newTracer()}
		// Collecting first keeps the last set-up's garbage out of this
		// one's time.
		runtime.GC()
		var tl timeline
		tl.start()
		w = mk(e)
		if err := w.setup(tl.lap); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		tl.stop()
		setups = append(setups, tl.times())
	}

	m := measure(cfg, e.tr, w)
	log, opMs, refOps := m.log, m.opMs, m.refOps

	res := &result{Attempted: len(log.ms), Failed: log.failed}
	for _, msg := range log.errs {
		res.failures = append(res.failures, "op failed: "+msg)
	}
	res.failures = append(res.failures, w.check()...)
	steady := steadyRatio(opMs[refOps:])
	if !cfg.smoke && len(opMs)-refOps >= 6 && (steady < steadyLo || steady > steadyHi) {
		res.failures = append(res.failures, fmt.Sprintf("not a steady state: driver.steady_ratio %.3f outside [%.2f, %.2f]", steady, steadyLo, steadyHi))
	}

	txns, took := float64(log.txns), m.tl.times()
	slows, cpuSlows := m.tl.slows()
	if !cfg.trace {
		var setupS, rawSetupS []float64
		for _, s := range setups {
			setupS, rawSetupS = append(setupS, s.wall), append(rawSetupS, s.rawWall)
		}
		r := newReport(endToEnd)
		r.set("setup_s", median(setupS))
		r.set("txns_s", ratio(txns, took.wall))
		r.set("cpu_ms_per_txn", ratio(took.cpu*1e3, txns))
		r.set("alloc_kb_per_txn", ratio(float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/1024, txns))
		disk, _ := dirBytes(e.dir, "")
		r.set("disk_kb_per_txn", ratio(float64(disk)/1024, float64(w.published())))
		res.Metrics = r.metrics()
		res.beside = []metricRow{
			{"raw.setup_s", median(rawSetupS), "s"},
			{"raw.txns_s", ratio(txns, took.rawWall), "txns/s"},
			{"raw.cpu_ms_per_txn", ratio(took.rawCPU*1e3, txns), "ms"},
			{"op_p50_ms", median(opMs), "ms"},
			{"raw.op_p50_ms", median(log.ms), "ms"},
			{"host.slowdown", median(slows), "ratio"},
			{"host.slowdown_p10", percentile(slows, 0.1), "ratio"},
			{"host.slowdown_p90", percentile(slows, 0.9), "ratio"},
			{"host.slowdown_cpu", median(cpuSlows), "ratio"},
			{"driver.steady_ratio", steady, "ratio"},
		}
	} else {
		// The traced run reports raw times: its spans cannot be corrected
		// one by one, and host.slowdown says what they were measured under.
		r := newReport(perLayer)
		w.layers(r, log)
		walBytes, segs := dirBytes(e.dir, string(filepath.Separator)+"wal"+string(filepath.Separator))
		r.set("wal.bytes_per_txn", ratio(float64(walBytes), float64(w.published())))
		r.set("wal.segments", float64(segs))
		r.set("go.gc_cycles", float64(m.after.mem.NumGC-m.before.mem.NumGC))
		r.set("go.gc_pause_ms_total", float64(m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs)/1e6)
		r.set("go.heap_live_mb_end", float64(m.after.mem.HeapAlloc)/(1<<20))
		measured := log.ms[refOps:]
		r.set("driver.op_p50_ms", median(measured))
		r.set("driver.op_p95_ms", percentile(measured, 0.95))
		r.set("driver.op_p99_ms", percentile(measured, 0.99))
		r.set("driver.op_n", float64(len(measured)))
		r.set("driver.steady_ratio", steady)
		ref := median(opMs[:refOps])
		r.set("driver.trace_overhead_share", ratio(median(opMs[refOps:])-ref, ref))
		r.set("host.slowdown", median(slows))
		res.Metrics = r.metrics()
		if err := e.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.failures) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}
