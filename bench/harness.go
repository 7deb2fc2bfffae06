package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"txns_s", "txns/s", "higher", bound(0.20)},
	{"cpu_ms_per_txn", "ms", "lower", bound(0.20)},
	{"alloc_kb_per_txn", "KB", "lower", bound(0.03)},
	{"disk_kb_per_txn", "KB", "lower", bound(0.03)},
}

// perLayer are the single-layer metrics; every workload reports all of
// them from the traced run, 0 where the workload does not cross the layer.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{Name: "gateway.publish_self_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.json_bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "gateway.requests", Unit: "count", Better: "higher"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "gateway.rate_limited", Unit: "count", Better: "lower"},
	{Name: "remote.publish_self_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.watch_polls_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.wire_bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "remote.hol_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "watch.wake_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.step_ms", Unit: "ms", Better: "lower"},
	{Name: "peer.store_ms_per_txn", Unit: "ms", Better: "lower"},
	{Name: "peer.local_ms_per_txn", Unit: "ms", Better: "lower"},
	{Name: "central.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "central.begin_ms", Unit: "ms", Better: "lower"},
	{Name: "central.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "central.open_ms", Unit: "ms", Better: "lower"},
	{Name: "central.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "central.publishes", Unit: "count", Better: "higher"},
	{Name: "central.epoch_contention", Unit: "count", Better: "lower"},
	{Name: "central.peer_contention", Unit: "count", Better: "lower"},
	{Name: "central.shard_contention", Unit: "count", Better: "lower"},
	{Name: "central.decision_round_trips", Unit: "count", Better: "lower"},
	{Name: "reldb.commits_per_txn", Unit: "count", Better: "lower"},
	{Name: "reldb.wal_appends_per_txn", Unit: "count", Better: "lower"},
	{Name: "reldb.commits_per_flush", Unit: "count", Better: "higher"},
	{Name: "reldb.group_peak", Unit: "count", Better: "higher"},
	{Name: "reldb.table_waits", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},
	{Name: "core.check_ms", Unit: "ms", Better: "lower"},
	{Name: "core.conflict_ms", Unit: "ms", Better: "lower"},
	{Name: "core.group_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.softstate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.candidates_per_txn", Unit: "count", Better: "lower"},
	{Name: "core.ext_txns_per_candidate", Unit: "count", Better: "lower"},
	{Name: "core.conflict_pairs", Unit: "count", Better: "lower"},
	{Name: "core.conflicts_found", Unit: "count", Better: "lower"},
	{Name: "core.deferred_carried", Unit: "count", Better: "lower"},
	{Name: "core.accepted", Unit: "count", Better: "higher"},
	{Name: "core.rejected", Unit: "count", Better: "lower"},
	{Name: "core.deferred", Unit: "count", Better: "lower"},
	{Name: "core.resolves", Unit: "count", Better: "lower"},
	{Name: "fleet.groups_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.store_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "scheduler.round_ms", Unit: "ms", Better: "lower"},
	{Name: "rebuild.peer_ms", Unit: "ms", Better: "lower"},
	{Name: "rebuild.tail_txns_per_peer", Unit: "count", Better: "lower"},
	{Name: "rebuild.snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "go.heap_live_mb_end", Unit: "MB", Better: "lower"},
	{Name: "driver.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.op_n", Unit: "count", Better: "higher"},
	{Name: "driver.steady_ratio", Unit: "ratio", Better: "lower"},
	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
}

// metricRow is a number printed beside the contract's metrics.
type metricRow struct {
	name  string
	value float64
	unit  string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects named values against a metric list and prints them.
type report struct {
	defs   []metricDef
	values map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *report) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		out[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (0 if empty); v is not
// modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// opLog is what the measured phase records: every operation's duration in
// order, the transactions it fully processed, and whether it failed.
type opLog struct {
	ms     []float64
	txns   int
	failed int
	errs   []string
}

func (l *opLog) add(d time.Duration, txns int, err error) {
	l.ms = append(l.ms, float64(d)/1e6)
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.txns += txns
}

// steadyRatio is the median op time of the last third of ms over that of
// the first third: 1 in a steady state, above 1 when work per op grows.
func steadyRatio(ms []float64) float64 {
	n := len(ms) / 3
	if n == 0 {
		return 1
	}
	return ratio(median(ms[len(ms)-n:]), median(ms[:n]))
}

// procSnap is the process-wide accounting sampled around the measured
// phase.
type procSnap struct {
	at  time.Time
	mem runtime.MemStats
}

func snapProcess() procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the regular files under dir whose path contains the filter
// (every file when it is empty), and counts them.
func dirBytes(dir, filter string) (bytes int64, files int) {
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.Contains(path, filter) {
			return nil
		}
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}

// newRunDir makes a fresh directory for one set-up's stores under base.
func newRunDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func printTable(title string, defs []metricDef, m map[string]metricValue) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}
