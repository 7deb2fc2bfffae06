// Package exp is the experiment harness for the paper's evaluation (§6):
// it assembles confederations of peers over either update store, drives the
// SWISS-PROT-style workload through publish/reconcile rounds, and measures
// the two §6 metrics — state ratio and reconciliation time split into store
// and local components — across repeated trials with 95% confidence
// intervals. Each figure of the paper has a sweep function in figures.go.
package exp

import (
	"context"
	"fmt"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/exp/dhtstore"
	"orchestra/internal/metrics"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/workload"
)

// StoreKind selects the update store implementation.
type StoreKind int

// The two §5.2 implementations.
const (
	Central StoreKind = iota
	DHT
)

// String names the store kind.
func (k StoreKind) String() string {
	if k == DHT {
		return "distributed"
	}
	return "central"
}

// Config parameterizes one experiment cell.
type Config struct {
	Peers         int
	TxnSize       int
	ReconInterval int // transactions published between reconciliations
	Rounds        int // publish+reconcile rounds per peer
	Store         StoreKind
	Trials        int
	Seed          int64
	KeySpace      int
	Latency       time.Duration // per-message latency of the DHT fabric
	// CentralCallCost/CentralPerTxnCost model the paper's client↔RDBMS
	// round-trip and row-shipping costs for the central store on a
	// virtual clock (see charged.go). Zero disables the model: the raw
	// embedded-engine cost is measured instead. The time figures
	// (10 and 12) enable it with the calibrated defaults.
	CentralCallCost   time.Duration
	CentralPerTxnCost time.Duration
	// DHTRequestCost models per-delivered-request processing at DHT nodes
	// (the paper's FreePastry/JVM request handling), charged on the
	// fabric's virtual clock in addition to wire latency. Zero disables
	// the model; the time figures enable it.
	DHTRequestCost time.Duration
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 10
	}
	if c.TxnSize <= 0 {
		c.TxnSize = 1
	}
	if c.ReconInterval <= 0 {
		c.ReconInterval = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 400
	}
	if c.Latency <= 0 {
		c.Latency = simnet.DefaultLatency
	}
	return c
}

// Result aggregates an experiment cell's trials.
type Result struct {
	Config Config
	// StateRatio is the §6 sharing-quality metric over the Function
	// relation.
	StateRatio metrics.Summary
	// TotalStore/TotalLocal are per-participant totals over the whole run,
	// in seconds (Figure 10's breakdown).
	TotalStore metrics.Summary
	TotalLocal metrics.Summary
	// PerReconStore/PerReconLocal are per-reconciliation averages
	// (Figure 12's breakdown).
	PerReconStore metrics.Summary
	PerReconLocal metrics.Summary
	// Messages is the DHT fabric traffic per trial (0 for central).
	Messages metrics.Summary
	// Deferred is the average number of transactions left deferred per
	// peer at the end of a trial.
	Deferred metrics.Summary
}

// Run executes all trials of a cell.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Config: cfg}
	var ratios, totStore, totLocal, perStore, perLocal, msgs, deferred []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		tr, err := runTrial(cfg, trial)
		if err != nil {
			return nil, fmt.Errorf("exp: trial %d: %w", trial, err)
		}
		ratios = append(ratios, tr.stateRatio)
		totStore = append(totStore, tr.storePerPeer.Seconds())
		totLocal = append(totLocal, tr.localPerPeer.Seconds())
		perStore = append(perStore, tr.storePerPeer.Seconds()/float64(cfg.Rounds))
		perLocal = append(perLocal, tr.localPerPeer.Seconds()/float64(cfg.Rounds))
		msgs = append(msgs, float64(tr.messages))
		deferred = append(deferred, tr.deferredPerPeer)
	}
	res.StateRatio = metrics.Summarize(ratios)
	res.TotalStore = metrics.Summarize(totStore)
	res.TotalLocal = metrics.Summarize(totLocal)
	res.PerReconStore = metrics.Summarize(perStore)
	res.PerReconLocal = metrics.Summarize(perLocal)
	res.Messages = metrics.Summarize(msgs)
	res.Deferred = metrics.Summarize(deferred)
	return res, nil
}

type trialResult struct {
	stateRatio      float64
	storePerPeer    time.Duration
	localPerPeer    time.Duration
	messages        int64
	deferredPerPeer float64
}

// runTrial runs one trial of the cell.
func runTrial(cfg Config, trial int) (*trialResult, error) {
	ctx := context.Background()
	schema := workload.Schema()

	var net *simnet.Network
	var charged *chargedStore
	var clientFor func(core.PeerID) (store.Store, error)
	switch cfg.Store {
	case Central:
		cs := central.MustOpenMemory(schema)
		defer cs.Close()
		if cfg.CentralCallCost > 0 || cfg.CentralPerTxnCost > 0 {
			charged = newChargedStore(cs, cfg.CentralCallCost, cfg.CentralPerTxnCost)
			clientFor = func(core.PeerID) (store.Store, error) { return charged, nil }
			break
		}
		clientFor = func(core.PeerID) (store.Store, error) { return cs, nil }
	case DHT:
		net = simnet.NewVirtual(cfg.Latency)
		if cfg.DHTRequestCost > 0 {
			net.SetProcessingCost(cfg.DHTRequestCost)
		}
		cluster := dhtstore.NewCluster(net)
		clientFor = func(p core.PeerID) (store.Store, error) {
			return cluster.AddNode("node-" + string(p))
		}
	default:
		return nil, fmt.Errorf("unknown store kind %d", cfg.Store)
	}

	peers := make([]*store.Peer, cfg.Peers)
	gens := make([]*workload.Generator, cfg.Peers)
	// Per-peer virtual network latency attributed to store time.
	netTime := make([]time.Duration, cfg.Peers)
	for i := range peers {
		id := core.PeerID(fmt.Sprintf("p%02d", i))
		cl, err := clientFor(id)
		if err != nil {
			return nil, err
		}
		peers[i], err = store.NewPeer(ctx, id, schema, core.TrustAll(1), cl)
		if err != nil {
			return nil, err
		}
		gens[i] = workload.New(workload.Config{
			Seed:     cfg.Seed*1_000_003 + int64(trial)*1_009 + int64(i),
			TxnSize:  cfg.TxnSize,
			KeySpace: cfg.KeySpace,
		})
	}

	virtual := func() time.Duration {
		var v time.Duration
		if net != nil {
			v += net.VirtualLatency()
		}
		if charged != nil {
			v += charged.virtual()
		}
		return v
	}

	// Main rounds: each peer makes ReconInterval transactions, then
	// publishes and reconciles.
	for round := 0; round < cfg.Rounds; round++ {
		for i, p := range peers {
			for t := 0; t < cfg.ReconInterval; t++ {
				ups := gens[i].NextUpdates(p.Instance(), p.ID())
				if len(ups) == 0 {
					continue
				}
				if _, err := p.Edit(ups...); err != nil {
					// Rare self-collision in the generated stream: skip.
					continue
				}
			}
			v0 := virtual()
			if _, err := p.PublishAndReconcile(ctx); err != nil {
				return nil, err
			}
			netTime[i] += virtual() - v0
		}
	}

	tr := &trialResult{}
	var storeSum, localSum time.Duration
	var defSum int
	for i, p := range peers {
		storeSum += p.StoreTime() + netTime[i]
		localSum += p.LocalTime()
		defSum += len(p.Engine().DeferredIDs())
	}
	tr.storePerPeer = storeSum / time.Duration(len(peers))
	tr.localPerPeer = localSum / time.Duration(len(peers))
	tr.deferredPerPeer = float64(defSum) / float64(len(peers))

	// An untimed catch-up pass so every peer has seen the full log before
	// the state ratio is computed.
	for _, p := range peers {
		if _, err := p.Reconcile(ctx); err != nil {
			return nil, err
		}
	}
	instances := make([]*core.Instance, len(peers))
	for i, p := range peers {
		instances[i] = p.Instance()
	}
	tr.stateRatio = metrics.StateRatio(instances, "Function")
	if net != nil {
		tr.messages = net.Stats().Messages()
	}
	return tr, nil
}
