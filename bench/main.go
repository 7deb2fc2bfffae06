// Command bench is the repository's benchmark: four closed-loop workloads
// over the durable stores, five end-to-end metrics, and per-layer metrics
// taken from outside each layer. README.md describes the workloads, the
// metrics and how they interact; BENCHMARK.json at the repository root is
// the contract a driver runs it by.
//
//	bench/run.sh --workload serve_stream --seed 1 --seconds 20 --trace 0
//	bench/run.sh                 # all workloads, untraced then traced
//	bench/run.sh -selfcheck      # the untraced suite twice, compared
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSeconds is the measured length of one run, and BENCHMARK.json's
// run_seconds; runSetups is how often a run sets its workload up.
const (
	runSeconds = 20
	runSetups  = 5
)

func main() {
	var (
		cfg       config
		trace     int
		selfcheck bool
		manifest  bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run in this process (default: every workload, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced suite twice and compare every end-to-end cell against its bound")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale, cfg.setups, cfg.outDir = 1, runSetups, "out"

	var err error
	switch {
	case manifest:
		err = printManifest()
	case cfg.workload != "":
		err = runOne(cfg)
	case selfcheck:
		err = runSelfcheck(cfg)
	default:
		err = runSuite(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics, the
// result object last. A failed check or operation fails the command.
func runOne(cfg config) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	defs, kind := endToEnd, "end to end"
	if cfg.trace {
		defs, kind = perLayer, "per layer (traced)"
	}
	printTable(fmt.Sprintf("%s seed=%d seconds=%g: %s", cfg.workload, cfg.seed, cfg.seconds, kind), defs, res.Metrics)
	for _, row := range res.beside {
		fmt.Printf("  %-34s %16.4f %s\n", row.name, row.value, row.unit)
	}
	fmt.Printf("  %-34s %16d\n  %-34s %16d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, f := range res.failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d failed checks, %d of %d operations failed", cfg.workload, len(res.failures), res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a fresh process, so that one workload's heap
// and GC pacing never price the next, and returns its result object.
func child(cfg config, name string, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, errors.Join(fmt.Errorf("%s: no result", name), runErr)
	}
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	return &res, nil
}

// runSuite runs every workload untraced, then traced.
func runSuite(cfg config) error {
	failed := 0
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			res, err := child(cfg, w.name, trace)
			if err != nil {
				return err
			}
			if !res.Correct {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}

// runSelfcheck runs the untraced suite twice on the same code and seed and
// fails if any end-to-end cell differs between the two by more than its
// bound: the benchmark cannot then resolve a regression of that size.
func runSelfcheck(cfg config) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloads {
			res, err := child(cfg, w.name, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s failed its checks", w.name)
			}
			sets[i][w.name] = res
		}
	}
	breaches := 0
	fmt.Printf("%-18s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].Metrics[d.Name].Value, sets[1][w.name].Metrics[d.Name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if diff > *d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %8.4f %6.2f%s\n", w.name, d.Name, a, b, diff, *d.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d of %d end-to-end cells differ by more than their bound", breaches, len(workloads)*len(endToEnd))
	}
	return nil
}

// printManifest prints BENCHMARK.json from the tables this program reports
// by, so the two cannot drift apart.
func printManifest() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
