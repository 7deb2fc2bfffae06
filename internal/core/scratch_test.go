package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// scriptedPeer is an observer engine stepping through a fixed published
// log: each step reconciles the next window of it, or resolves a conflict
// group, or makes a local edit first. A step's choices are a function of
// the script's seed, the step's number and the engine's state, so a second
// engine stepping the same script from the same state steps alike.
type scriptedPeer struct {
	e      *Engine
	log    []*Transaction
	graph  *AntecedentGraph
	seed   int64
	cursor int
	steps  int
	// resolved reports that the last step was a resolve.
	resolved bool
	// beforeRun, when set, is called as the step calls Reconcile or
	// Resolve, after any local edit.
	beforeRun func()
}

// step runs the peer's next step and returns what it returned.
func (p *scriptedPeer) step(t *testing.T) *Result {
	t.Helper()
	r := rand.New(rand.NewSource(p.seed<<16 | int64(p.steps)))
	p.steps++
	p.resolved = false
	if gs := p.e.ConflictGroups(); len(gs) > 0 && r.Intn(4) == 0 {
		p.resolved = true
		g := gs[r.Intn(len(gs))]
		p.ran()
		res, err := p.e.Resolve(g.Conflict, r.Intn(len(g.Options)+1)-1)
		if err != nil {
			t.Fatalf("resolve %s: %v", g.Conflict, err)
		}
		return res
	}
	if r.Intn(3) == 0 {
		// A local edit, so the next run has an own delta to check against.
		key := Strs([]string{"rat", "mouse", "dog"}[r.Intn(3)], fmt.Sprintf("prot%d", r.Intn(6)))
		fn := []string{"a", "b", "c", "d"}[r.Intn(4)]
		u := Insert("F", append(key[:2:2], Strs(fn)...), p.e.Peer())
		if cur, ok := p.e.Instance().Lookup("F", key); ok {
			u = Modify("F", cur, append(key[:2:2], Strs(fn)...), p.e.Peer())
		}
		_, _, _ = p.e.NewLocalTransaction(u) // an edit the instance refuses is no step
	}
	to := min(p.cursor+1+r.Intn(12), len(p.log))
	var cands []*Candidate
	for _, x := range p.log[p.cursor:to] {
		prio := TxnPriority(p.e.Trust(), x)
		if prio <= 0 {
			continue
		}
		ext, err := p.graph.Extension(x.ID, p.e.Applied)
		if err != nil {
			t.Fatalf("extension %s: %v", x.ID, err)
		}
		cands = append(cands, &Candidate{Txn: x, Priority: prio, Ext: ext})
	}
	p.cursor = to
	p.ran()
	res, err := p.e.Reconcile(cands)
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	return res
}

func (p *scriptedPeer) ran() {
	if p.beforeRun != nil {
		p.beforeRun()
	}
}

// engineView is what a step shows of an engine: the step's result (its
// stage timings zeroed), the conflict groups, the deferred set, the dirty
// keys and the durable state.
type engineView struct {
	Result   *Result
	Groups   []*ConflictGroup
	Deferred []TxnID
	Dirty    []tupleKey
	Snapshot *EngineSnapshot
}

func viewOf(e *Engine, res *Result) engineView {
	r := copyResult(res)
	r.Stats.CheckNanos, r.Stats.ConflictNanos, r.Stats.GroupNanos = 0, 0, 0
	r.Stats.ApplyNanos, r.Stats.SoftStateNanos = 0, 0
	return engineView{
		Result:   r,
		Groups:   copyGroups(e.ConflictGroups()),
		Deferred: e.DeferredIDs(),
		Dirty:    sortedKeys(e.dirty),
		Snapshot: e.ExportSnapshot(),
	}
}

func copyResult(res *Result) *Result {
	c := *res
	c.Accepted = slices.Clone(res.Accepted)
	c.Rejected = slices.Clone(res.Rejected)
	c.Deferred = slices.Clone(res.Deferred)
	return &c
}

func copyGroups(gs []*ConflictGroup) []*ConflictGroup {
	if gs == nil {
		return nil
	}
	out := make([]*ConflictGroup, len(gs))
	for i, g := range gs {
		c := &ConflictGroup{Conflict: g.Conflict, Options: make([]*Option, len(g.Options))}
		for j, o := range g.Options {
			c.Options[j] = &Option{Txns: slices.Clone(o.Txns), effect: copyUpdates(o.effect)}
		}
		out[i] = c
	}
	return out
}

func copyUpdates(us []Update) []Update {
	out := slices.Clone(us)
	for i := range out {
		u := &out[i]
		u.Tuple, u.New = slices.Clone(u.Tuple), slices.Clone(u.New)
		if u.enc != nil {
			enc := *u.enc
			u.enc = &enc
		}
	}
	return out
}

func sortedKeys(m map[tupleKey]bool) []tupleKey {
	out := make([]tupleKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, compareTupleKeys)
	return out
}

func compareTupleKeys(a, b tupleKey) int {
	if c := strings.Compare(a.rel, b.rel); c != 0 {
		return c
	}
	return strings.Compare(a.enc, b.enc)
}

// checkSoftState asserts that a run's result and the soft state it left
// agree with the engine: the result's decisions are the engine's — its
// deferred roots the whole deferred set, or some of it after a resolve
// (resolved) — and the dirty keys are exactly those its deferred candidates
// keep.
func checkSoftState(t *testing.T, what string, e *Engine, res *Result, resolved bool) {
	t.Helper()
	for _, id := range res.Accepted {
		if !e.Applied(id) {
			t.Fatalf("%s: accepted %v is not applied", what, id)
		}
	}
	for _, id := range res.Rejected {
		if !e.Rejected(id) {
			t.Fatalf("%s: rejected %v is not rejected", what, id)
		}
	}
	deferred := slices.Clone(res.Deferred)
	slices.SortFunc(deferred, compareTxnIDs)
	if all := e.DeferredIDs(); !slices.Equal(deferred, all) && !(resolved && isSubList(deferred, all)) {
		t.Fatalf("%s: result defers %v, engine %v", what, deferred, all)
	}
	kept := map[tupleKey]bool{}
	for _, d := range e.deferredCands {
		for _, k := range d.dirty {
			if !e.dirty[k] {
				t.Fatalf("%s: %v keeps %v dirty, which the dirty set lacks", what, d.cand.Txn.ID, k)
			}
			kept[k] = true
		}
	}
	if len(kept) != len(e.dirty) {
		t.Fatalf("%s: %d dirty keys, %d kept by deferred candidates", what, len(e.dirty), len(kept))
	}
}

// keptValue is a value a run handed out, and a deep copy of it taken then.
type keptValue struct {
	what       string
	orig, copy any
}

// TestRunScratchLeavesNoAlias: two engines share the run scratch pool and
// interleave Reconcile and Resolve. After every step the stepping engine
// equals a fresh engine that stepped the same script on a scratch no other
// run touched (the pool is emptied before each of its steps), its result
// and soft state agree with it, and every value any earlier step handed
// out — results, conflict groups, deferred sets, snapshots and the dirty
// keys each deferred candidate keeps — is as it was when handed out.
func TestRunScratchLeavesNoAlias(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tl, _ := randomCDSSRun(t, seed, 4, 5, 3)
		log := tl.graph.InOrder(0, uint64(tl.graph.Len()))
		trusts := []Trust{
			TrustAll(1),
			TrustOrigins(map[PeerID]int{"p0": 3, "p1": 2, "p2": 1, "p3": 1}),
		}
		newPeer := func(i int) *scriptedPeer {
			return &scriptedPeer{
				e:   NewEngine(PeerID(fmt.Sprintf("q%d", i)), tl.schema, trusts[i]),
				log: log, graph: tl.graph, seed: seed*10 + int64(i),
			}
		}
		r := rand.New(rand.NewSource(seed))
		turns := make([]int, 80) // which engine steps, in turn
		steps := make([]int, len(trusts))
		for n := range turns {
			turns[n] = r.Intn(len(trusts))
			steps[turns[n]]++
		}

		// The fresh engines step first, each step on a new scratch.
		want := make([][]engineView, len(trusts))
		for i := range trusts {
			p := newPeer(i)
			for range steps[i] {
				runtime.GC() // twice: the pool keeps its items for one cycle
				runtime.GC()
				want[i] = append(want[i], viewOf(p.e, p.step(t)))
			}
		}

		var kept []keptValue
		keep := func(what string, orig, copy any) { kept = append(kept, keptValue{what, orig, copy}) }
		var peers []*scriptedPeer
		for i := range trusts {
			peers = append(peers, newPeer(i))
		}
		for n, i := range turns {
			p := peers[i]
			what := fmt.Sprintf("seed %d step %d (%s's %d)", seed, n, p.e.Peer(), p.steps)
			res := p.step(t)
			checkSoftState(t, what, p.e, res, p.resolved)
			if got := viewOf(p.e, res); !reflect.DeepEqual(got, want[i][p.steps-1]) {
				t.Fatalf("%s: engine differs from a fresh one:\n%+v\n%+v", what, got, want[i][p.steps-1])
			}

			keep(what+" result", res, copyResult(res))
			gs := p.e.ConflictGroups()
			keep(what+" groups", gs, copyGroups(gs))
			ds := p.e.DeferredIDs()
			keep(what+" deferred", ds, slices.Clone(ds))
			snap := p.e.ExportSnapshot()
			keep(what+" snapshot", snap, copySnapshot(snap))
			for id, d := range p.e.deferredCands {
				keep(fmt.Sprintf("%s dirty keys of %v", what, id), d.dirty, slices.Clone(d.dirty))
			}
			for _, k := range kept {
				if !reflect.DeepEqual(k.orig, k.copy) {
					t.Fatalf("%s: %s changed since:\n%+v\n%+v", what, k.what, k.orig, k.copy)
				}
			}
		}
	}
}

func copySnapshot(s *EngineSnapshot) *EngineSnapshot {
	c := *s
	c.Applied = slices.Clone(s.Applied)
	c.Rejected = slices.Clone(s.Rejected)
	c.Relations = slices.Clone(s.Relations)
	for i := range c.Relations {
		c.Relations[i].Rows = slices.Clone(s.Relations[i].Rows)
	}
	return &c
}

// TestRunScratchZeroedAfterRun: once a run is over its scratch holds
// nothing — every slice zero up to its capacity, every map empty — so an
// idle pooled scratch pins no candidate, and the workload reaches every
// slice of it.
func TestRunScratchZeroedAfterRun(t *testing.T) {
	tl, _ := randomCDSSRun(t, 3, 4, 5, 3)
	s := tl.schema
	e := NewEngine("q", s, TrustAll(1))
	rs := runPool.New().(*runScratch)
	log := tl.graph.InOrder(0, uint64(tl.graph.Len()))
	for lo := 0; lo < len(log); lo += 8 {
		mustLocal(t, e, Insert("F", Strs("own", fmt.Sprintf("prot%d", lo), "v"), "q"))
		var cands []*Candidate
		for _, x := range log[lo:min(lo+8, len(log))] {
			ext, err := tl.graph.Extension(x.ID, e.Applied)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, &Candidate{Txn: x, Priority: 1, Ext: ext})
		}
		if _, err := e.run(rs, cands, nil); err != nil {
			t.Fatal(err)
		}
		rs.reset()
		assertZero(t, reflect.ValueOf(rs).Elem(), "runScratch")
	}
	v := reflect.ValueOf(rs).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() == 0 {
			t.Errorf("no run used runScratch.%s", v.Type().Field(i).Name)
		}
	}
}

// assertZero fails unless v is zero, reading slices up to their capacity
// and requiring maps to be empty.
func assertZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < all.Len(); i++ {
			if !all.Index(i).IsZero() {
				t.Errorf("%s[%d] (len %d) is not zero", path, i, v.Len())
				return
			}
		}
	case reflect.Map:
		if v.Len() != 0 {
			t.Errorf("%s holds %d entries", path, v.Len())
		}
	default:
		if !v.IsZero() {
			t.Errorf("%s is not zero", path)
		}
	}
}
