package main

import (
	"fmt"
	"path/filepath"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

const (
	fleetStores     = 2
	fleetGroupPeers = 3
	fleetWindow     = 6
	fleetSampled    = 3 // groups replayed on a standalone System
)

// rankedPolicy ranks p0 > p1 > ... for every peer alike: no two origins
// tie, so nothing is ever deferred.
func rankedPolicy(n int) (*trust.Policy, error) {
	text := ""
	for i := 0; i < n; i++ {
		text += fmt.Sprintf("priority %d when origin = 'p%d'\n", n-i, i)
	}
	return trust.Parse(text)
}

// tenant is one group's input side: its generator, its peers, and (for the
// sampled groups) the transcript of every round's decisions.
type tenant struct {
	gen     *windowGen
	peers   []*store.Peer
	sampled bool
	script  []byte
}

// edit draws the round's transaction for every peer of the group.
func (t *tenant) edit() ([]core.TxnID, error) {
	ids := make([]core.TxnID, 0, len(t.peers))
	for _, p := range t.peers {
		x, err := t.gen.peerEdit(p, map[int]bool{})
		if err != nil {
			return nil, err
		}
		ids = append(ids, x.ID)
	}
	t.gen.nextRound()
	return ids, nil
}

// audit checks that every peer decided each of the round's transactions
// and nothing is deferred; a sampled group also extends its transcript.
func (t *tenant) audit(ids []core.TxnID) error {
	script, err := transcript(t.peers, ids)
	if t.sampled {
		t.script = append(t.script, script...)
	}
	return err
}

// fleetGroups is the multi-tenant workload: 200 groups of 3 ranked peers on
// a Fleet of 2 durable nodes, one transaction per peer per round in the
// group's own 6-key window, one Scheduler.RunRound per op.
type fleetGroups struct {
	e       *env
	fleet   *orchestra.Fleet
	sched   *orchestra.Scheduler
	groups  []*orchestra.Group
	tenants []*tenant
	pol     *trust.Policy
	rounds  int
	txns    int
	failure error

	db0      []metrics.DBSnapshot
	pipe0    []metrics.PipelineSnapshot
	st0, lt0 time.Duration
}

func newFleetGroups(e *env) workload { return &fleetGroups{e: e} }

func (w *fleetGroups) groupSeed(g int) int64 { return w.e.seed*1_000_003 + int64(g) }

func (w *fleetGroups) setup(lap func()) error {
	dir := w.e.dir
	w.fleet = orchestra.NewFleet(orchestra.WithStoreDirs(func(name string) string { return filepath.Join(dir, name) }))
	for i := 0; i < fleetStores; i++ {
		if err := w.fleet.AddStore(fmt.Sprintf("s%d", i)); err != nil {
			return err
		}
	}
	var err error
	if w.pol, err = rankedPolicy(fleetGroupPeers); err != nil {
		return err
	}
	schema := benchSchema()
	n := w.e.scaled(200, fleetSampled)
	for g := 0; g < n; g++ {
		spec := orchestra.GroupSpec{ID: fmt.Sprintf("g%03d", g), Schema: schema}
		for p := 0; p < fleetGroupPeers; p++ {
			spec.Peers = append(spec.Peers, orchestra.GroupPeer{ID: core.PeerID(fmt.Sprintf("p%d", p)), Trust: w.pol})
		}
		lap()
		grp, err := w.fleet.AddGroup(spec)
		if err != nil {
			return err
		}
		w.groups = append(w.groups, grp)
		w.tenants = append(w.tenants, &tenant{
			gen:     newWindowGen(w.groupSeed(g), fleetWindow),
			peers:   grp.System().Peers(),
			sampled: g%(n/fleetSampled) == 0 && g/(n/fleetSampled) < fleetSampled,
		})
	}
	w.sched = orchestra.NewScheduler(w.groups)
	for r, warm := 0, w.e.scaled(12, 2); r < warm; r++ {
		lap()
		_, ids, err := w.round()
		if err != nil {
			return err
		}
		w.audit(ids)
	}
	return w.failure
}

// round edits every group and runs one scheduler round; it returns each
// group's transactions of the round.
func (w *fleetGroups) round() (int, [][]core.TxnID, error) {
	ids := make([][]core.TxnID, len(w.tenants))
	n := 0
	for i, t := range w.tenants {
		var err error
		if ids[i], err = t.edit(); err != nil {
			return 0, nil, err
		}
		n += len(ids[i])
	}
	if err := w.sched.RunRound(w.e.ctx); err != nil {
		return 0, nil, err
	}
	w.rounds++
	w.txns += n
	return n, ids, nil
}

func (w *fleetGroups) audit(ids [][]core.TxnID) {
	for i, t := range w.tenants {
		if err := t.audit(ids[i]); err != nil && w.failure == nil {
			w.failure = fmt.Errorf("group %s: %w", w.groups[i].ID(), err)
		}
	}
}

func (w *fleetGroups) nodeSnaps() []metrics.DBSnapshot {
	var out []metrics.DBSnapshot
	for _, name := range w.fleet.Stores() {
		if n, ok := w.fleet.Node(name); ok {
			out = append(out, n.Metrics().Snapshot())
		}
	}
	return out
}

func (w *fleetGroups) pipeSnaps() []metrics.PipelineSnapshot {
	out := make([]metrics.PipelineSnapshot, len(w.groups))
	for i, g := range w.groups {
		out[i] = g.System().Pipeline().Snapshot()
	}
	return out
}

func (w *fleetGroups) allPeers() []*store.Peer {
	var out []*store.Peer
	for _, t := range w.tenants {
		out = append(out, t.peers...)
	}
	return out
}

func (w *fleetGroups) mark() {
	w.db0 = w.nodeSnaps()
	w.pipe0 = w.pipeSnaps()
	w.st0, w.lt0 = peerTimes(w.allPeers())
}

func (w *fleetGroups) step(log *opLog) {
	start := time.Now()
	var sp span
	if w.e.tr.on.Load() {
		sp = span{Name: "scheduler.round", Start: w.e.tr.now()}
	}
	n, ids, err := w.round()
	if sp.Name != "" {
		sp.End, sp.N = w.e.tr.now(), int64(n)
		w.e.tr.add(sp)
	}
	log.add(time.Since(start), n, err)
	if err == nil {
		w.audit(ids)
	}
}

// check replays the sampled groups on standalone in-memory Systems: the
// same generator seed and the same number of rounds must give the same
// decisions the fleet reached.
func (w *fleetGroups) check() []string {
	var failed []string
	if w.failure != nil {
		failed = append(failed, w.failure.Error())
	}
	for g, t := range w.tenants {
		if !t.sampled {
			continue
		}
		script, err := w.replay(g)
		if err != nil {
			failed = append(failed, fmt.Sprintf("replay of group %s: %v", w.groups[g].ID(), err))
		} else if string(script) != string(t.script) {
			failed = append(failed, fmt.Sprintf("replay of group %s: decisions differ from the fleet's", w.groups[g].ID()))
		}
	}
	return failed
}

func (w *fleetGroups) replay(g int) ([]byte, error) {
	sys, err := orchestra.NewSystem(benchSchema())
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	twin := &tenant{gen: newWindowGen(w.groupSeed(g), fleetWindow), sampled: true}
	for p := 0; p < fleetGroupPeers; p++ {
		peer, err := sys.AddPeer(core.PeerID(fmt.Sprintf("p%d", p)), w.pol)
		if err != nil {
			return nil, err
		}
		twin.peers = append(twin.peers, peer)
	}
	for r := 0; r < w.rounds; r++ {
		ids, err := twin.edit()
		if err != nil {
			return nil, err
		}
		if _, err := sys.ReconcileAll(w.e.ctx); err != nil {
			return nil, err
		}
		if err := twin.audit(ids); err != nil {
			return nil, err
		}
	}
	return twin.script, nil
}

func (w *fleetGroups) published() int { return w.txns }

func (w *fleetGroups) layers(r *report, log *opLog) {
	ops := len(log.ms)
	var agg coreAgg
	for i, to := range w.pipeSnaps() {
		agg.observePipeline(w.pipe0[i], to)
	}
	agg.report(r, ops, log.txns)
	var deltas []metrics.DBSnapshot
	for i, to := range w.nodeSnaps() {
		deltas = append(deltas, dbDelta(w.db0[i], to))
	}
	reportReldb(r, log.txns, deltas...)
	st1, lt1 := peerTimes(w.allPeers())
	storeMs, localMs := reportPeerTimes(r, ops, log.txns, w.st0, w.lt0, st1, lt1)
	printShares("fleet_groups", mean(log.ms), "scheduler, generator and driver",
		share{"store calls through the fleet", storeMs}, share{"engine (peers' local time)", localMs})

	perNode := map[string]int{}
	for _, g := range w.groups {
		if name, ok := w.fleet.StoreFor(g.ID()); ok {
			perNode[name]++
		}
	}
	lo, hi := len(w.groups), 0
	for _, name := range w.fleet.Stores() {
		lo, hi = min(lo, perNode[name]), max(hi, perNode[name])
	}
	r.set("fleet.store_imbalance", ratio(float64(hi), float64(lo)))
	r.set("fleet.groups_per_s", ratio(float64(len(w.groups)), mean(log.ms)/1e3))
	r.set("scheduler.round_ms", w.e.tr.p50("scheduler.round"))
}

func (w *fleetGroups) close() {
	if w.fleet != nil {
		w.fleet.Close()
	}
}
