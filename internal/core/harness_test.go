package core

import "testing"

// testLog is a minimal in-memory update store for engine tests: it keeps the
// global publication log (an AntecedentGraph) and each peer's high-water
// mark, and builds Candidates the way the real stores do.
type testLog struct {
	t       *testing.T
	schema  *Schema
	graph   *AntecedentGraph
	watermk map[PeerID]uint64
}

func newTestLog(t *testing.T, s *Schema) *testLog {
	return &testLog{t: t, schema: s, graph: NewAntecedentGraph(s), watermk: make(map[PeerID]uint64)}
}

// publish appends transactions to the global log.
func (l *testLog) publish(xs ...*Transaction) {
	for _, x := range xs {
		if err := l.graph.Add(x); err != nil {
			l.t.Fatalf("publish %s: %v", x.ID, err)
		}
	}
}

// candidates returns the fully trusted transactions published since the
// peer's last fetch, with extensions computed against the engine's applied
// set, and advances the watermark.
func (l *testLog) candidates(e *Engine) []*Candidate {
	from := l.watermk[e.Peer()]
	to := uint64(l.graph.Len())
	l.watermk[e.Peer()] = to
	var out []*Candidate
	for _, x := range l.graph.InOrder(from, to) {
		if x.ID.Origin == e.Peer() {
			continue
		}
		prio := TxnPriority(e.Trust(), x)
		if prio <= 0 {
			continue
		}
		ext, err := l.graph.Extension(x.ID, e.Applied)
		if err != nil {
			l.t.Fatalf("extension %s: %v", x.ID, err)
		}
		out = append(out, &Candidate{Txn: x, Priority: prio, Ext: ext})
	}
	return out
}

// reconcile publishes nothing and reconciles the peer against the log.
func (l *testLog) reconcile(e *Engine) *Result {
	res, err := e.Reconcile(l.candidates(e))
	if err != nil {
		l.t.Fatalf("reconcile %s: %v", e.Peer(), err)
	}
	return res
}

// mustLocal applies a local transaction or fails the test.
func mustLocal(t *testing.T, e *Engine, us ...Update) *Transaction {
	t.Helper()
	x, _, err := e.NewLocalTransaction(us...)
	if err != nil {
		t.Fatalf("local txn at %s: %v", e.Peer(), err)
	}
	return x
}

// proteinSchema returns the paper's F(organism, protein, function) relation
// with key (organism, protein).
func proteinSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(NewRelation("F", 2, "organism", "protein", "function"))
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

// wantTuples asserts the instance contents of one relation.
func wantTuples(t *testing.T, in *Instance, rel string, want ...Tuple) {
	t.Helper()
	got := in.Tuples(rel)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d tuples %v, want %d %v", rel, len(got), got, len(want), want)
	}
	index := make(map[string]bool, len(want))
	for _, w := range want {
		index[w.Encode()] = true
	}
	for _, g := range got {
		if !index[g.Encode()] {
			t.Errorf("%s: unexpected tuple %v", rel, g)
		}
	}
}

// wantIDs asserts a []TxnID matches a set of expected IDs.
func wantIDs(t *testing.T, what string, got []TxnID, want ...TxnID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	set := NewTxnSet(want...)
	for _, id := range got {
		if !set.Has(id) {
			t.Errorf("%s: unexpected %s (want %v)", what, id, want)
		}
	}
}

func xid(p PeerID, seq uint64) TxnID { return TxnID{Origin: p, Seq: seq} }
