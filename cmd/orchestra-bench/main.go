// Command orchestra-bench regenerates the paper's evaluation figures
// (§6, Figures 8-12): it sweeps the experiment parameters, runs repeated
// trials of the SWISS-PROT-style workload over the chosen update stores,
// and prints each figure as a table of means with 95% confidence intervals;
// -cell runs one point of such a sweep with custom parameters. The
// repository's benchmark is bench/ (see BENCHMARK.json), not this command.
//
// Usage:
//
//	orchestra-bench -fig all            # every figure, full trials
//	orchestra-bench -fig 10 -quick      # one figure, reduced trials
//	orchestra-bench -cell -peers 25 -store distributed -ri 20
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"orchestra/internal/exp"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 8|9|10|11|12|all")
	quick := flag.Bool("quick", false, "reduced trials/rounds for a fast pass")
	seed := flag.Int64("seed", 1, "base random seed")
	cell := flag.Bool("cell", false, "run a single custom experiment cell instead of a figure")
	peers := flag.Int("peers", 10, "[cell] number of participants")
	txnSize := flag.Int("txnsize", 1, "[cell] updates per transaction")
	ri := flag.Int("ri", 4, "[cell] transactions between reconciliations")
	rounds := flag.Int("rounds", 5, "[cell] publish/reconcile rounds per peer")
	trials := flag.Int("trials", 5, "[cell] trials")
	storeKind := flag.String("store", "central", "[cell] central|distributed")
	flag.Parse()

	if *cell {
		runCell(*peers, *txnSize, *ri, *rounds, *trials, *storeKind, *seed)
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = exp.FigureIDs()
	}
	opts := exp.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		runner, ok := exp.Figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; available: %v\n", id, exp.FigureIDs())
			os.Exit(2)
		}
		start := time.Now()
		figure, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		figure.Fprint(os.Stdout)
		fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

func runCell(peers, txnSize, ri, rounds, trials int, storeKind string, seed int64) {
	kind := exp.Central
	if storeKind == "distributed" || storeKind == "dht" {
		kind = exp.DHT
	}
	res, err := exp.Run(exp.Config{
		Peers:         peers,
		TxnSize:       txnSize,
		ReconInterval: ri,
		Rounds:        rounds,
		Trials:        trials,
		Store:         kind,
		Seed:          seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("cell: peers=%d txnsize=%d ri=%d rounds=%d store=%s trials=%d\n",
		peers, txnSize, ri, rounds, kind, trials)
	fmt.Printf("  state ratio:          %s\n", res.StateRatio)
	fmt.Printf("  store time (total s): %s\n", res.TotalStore)
	fmt.Printf("  local time (total s): %s\n", res.TotalLocal)
	fmt.Printf("  store time (/recon):  %s\n", res.PerReconStore)
	fmt.Printf("  local time (/recon):  %s\n", res.PerReconLocal)
	fmt.Printf("  messages:             %s\n", res.Messages)
	fmt.Printf("  deferred per peer:    %s\n", res.Deferred)
}
