// Package orchestra is a collaborative data sharing system (CDSS): a
// confederation of autonomous participants who each control their own
// database instance of a shared schema, publish their updates as
// transactions, and selectively import ("reconcile") others' updates
// according to per-participant trust policies — tolerating disagreement
// rather than forcing a single globally consistent instance.
//
// It reproduces Taylor & Ives, "Reconciling while Tolerating Disagreement
// in Collaborative Data Sharing" (SIGMOD 2006), the reconciliation engine
// of the Orchestra system: transaction-level trust priorities, antecedent
// chains with transitive acceptance, delta flattening ("least
// interaction"), deferral of unresolvable conflicts with dirty-value
// protection, user-driven conflict resolution, and two update stores — a
// centralized store over an embedded relational engine and a distributed
// store over a Pastry-style DHT.
//
// # Quick start
//
//	schema := orchestra.MustSchema(orchestra.NewRelation("F", 2, "organism", "protein", "function"))
//	sys, _ := orchestra.NewSystem(schema)
//	alice, _ := sys.AddPeer("alice", orchestra.TrustAll(1))
//	bob, _ := sys.AddPeer("bob", orchestra.TrustOrigins(map[orchestra.PeerID]int{"alice": 2}))
//
//	alice.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "immune"), "alice"))
//	alice.PublishAndReconcile(ctx) // publish alice's edits
//	bob.PublishAndReconcile(ctx)   // bob imports what he trusts
//
// Each peer ends with its own internally consistent instance; conflicting
// updates of equal priority are deferred into conflict groups that the
// user resolves with Peer.Resolve.
//
// # Reconciliation pipeline
//
// Reconciliation is an allocation-lean pipeline. A single engine runs
// every stage of Figure 4 on its caller's goroutine. Concurrency is per
// peer: System.ReconcileAll publishes every peer and then reconciles every
// peer concurrently (engines are single-owner, stores are safe for
// concurrent use), bounded by WithReconcileFanOut — the bound changes
// concurrency, never semantics. System.Pipeline exposes aggregated stage
// latencies, work counters, and the fan-out busy gauge. The hot path
// avoids re-encoding tuples (encodings are cached per update at validation
// time) and recycles flattening scratch state through a sync.Pool.
package orchestra

import (
	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// Core data model.
type (
	// Value is a typed attribute value (string, int, float, bool, or NULL).
	Value = core.Value
	// Tuple is an ordered list of values conforming to a relation.
	Tuple = core.Tuple
	// Relation describes one relation: attributes, key, constraints.
	Relation = core.Relation
	// AttrDef declares one attribute of a relation.
	AttrDef = core.AttrDef
	// ForeignKey declares a referential constraint.
	ForeignKey = core.ForeignKey
	// Schema is the set of relations shared by all participants.
	Schema = core.Schema
	// PeerID identifies a participant.
	PeerID = core.PeerID
	// Update is one tuple-level change annotated with its origin.
	Update = core.Update
	// Op is the update operation kind (insert, delete, modify).
	Op = core.Op
	// Transaction is an atomic group of updates X_{i:j}.
	Transaction = core.Transaction
	// TxnID identifies a transaction: originator and local sequence.
	TxnID = core.TxnID
	// Epoch is the publication epoch counter.
	Epoch = core.Epoch
	// Instance is a participant's materialized database instance.
	Instance = core.Instance
	// Engine is the client-centric reconciliation engine.
	Engine = core.Engine
	// ReconcileStats counts the work done by one reconciliation, including
	// per-stage pipeline latencies.
	ReconcileStats = core.ReconcileStats
	// Pipeline aggregates reconciliation-pipeline counters across peers.
	Pipeline = metrics.Pipeline
	// PipelineSnapshot is a point-in-time copy of pipeline counters.
	PipelineSnapshot = metrics.PipelineSnapshot
	// Trust evaluates a participant's acceptance rules.
	Trust = core.Trust
	// Decision is a reconciliation outcome (accept, reject, defer).
	Decision = core.Decision
	// Result reports one reconciliation's decisions and statistics.
	Result = core.Result
	// Conflict identifies a conflict by type, relation and value.
	Conflict = core.Conflict
	// ConflictGroup is a group of conflicts over one value, with options.
	ConflictGroup = core.ConflictGroup
	// Option is one resolvable choice within a conflict group.
	Option = core.Option
	// Peer couples an engine with an update store.
	Peer = store.Peer
	// Store is the update store interface of the paper's §5.2.
	Store = store.Store
	// PublishedTxn is a transaction plus its antecedent set as shipped to
	// the update store.
	PublishedTxn = store.PublishedTxn
	// Watcher is the store capability of subscribing to newly stable
	// epochs; RunStreaming needs it of every peer's store.
	Watcher = store.Watcher
	// WatchEvent is one advance of the stable frontier, (From, To], as a
	// watch subscription reports it; it carries no transactions.
	WatchEvent = store.WatchEvent
	// StreamOptions tunes Peer.ReconcileStream / System.RunStreaming.
	StreamOptions = store.StreamOptions
	// StreamResult reports one completed streaming reconcile step.
	StreamResult = store.StreamResult
	// TrustPolicy is a compiled set of acceptance rules in the textual
	// predicate language (see ParseTrustPolicy).
	TrustPolicy = trust.Policy
	// WorkloadGenerator produces the paper's SWISS-PROT-style synthetic
	// curation workload.
	WorkloadGenerator = workload.Generator
	// WorkloadConfig parameterizes a workload generator.
	WorkloadConfig = workload.Config
)

// Update operations.
const (
	OpInsert = core.OpInsert
	OpDelete = core.OpDelete
	OpModify = core.OpModify
)

// Decisions.
const (
	DecisionNone   = core.DecisionNone
	DecisionAccept = core.DecisionAccept
	DecisionReject = core.DecisionReject
	DecisionDefer  = core.DecisionDefer
)

// Value constructors.
var (
	// S builds a string value.
	S = core.S
	// I builds an integer value.
	I = core.I
	// F builds a float value.
	F = core.F
	// B builds a boolean value.
	B = core.B
	// Null builds the NULL value.
	Null = core.Null
	// T builds a tuple from values.
	T = core.T
	// Strs builds a tuple of string values.
	Strs = core.Strs
)

// Schema constructors.
var (
	// NewRelation builds a string-typed relation whose key is its first
	// nkey attributes.
	NewRelation = core.NewRelation
	// NewSchema validates and assembles a schema.
	NewSchema = core.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = core.MustSchema
)

// Update constructors.
var (
	// Insert builds +rel(t; origin).
	Insert = core.Insert
	// Delete builds −rel(t; origin).
	Delete = core.Delete
	// Modify builds rel(old→new; origin).
	Modify = core.Modify
)

// Engine construction.
var (
	// NewEngine builds a standalone reconciliation engine (System.AddPeer
	// constructs one implicitly per peer).
	NewEngine = core.NewEngine
)

// Trust policy constructors.
var (
	// TrustAll assigns one priority to every update.
	TrustAll = core.TrustAll
	// TrustOrigins maps originating peers to priorities.
	TrustOrigins = core.TrustOrigins
	// ParseTrustPolicy compiles a textual policy: one rule per line,
	// "priority <n> when <predicate>", with predicates over origin, rel,
	// op, attr('name') and newattr('name').
	ParseTrustPolicy = trust.Parse
	// NewTrustPolicy returns an empty textual policy for incremental
	// construction.
	NewTrustPolicy = trust.NewPolicy
)

// Workload and metrics.
var (
	// NewWorkload returns a SWISS-PROT-style generator (§6 of the paper).
	NewWorkload = workload.New
	// WorkloadSchema returns the workload's Function/XRef schema.
	WorkloadSchema = workload.Schema
	// StateRatio computes the paper's sharing-quality metric over
	// instances: the average number of distinct per-key states.
	StateRatio = metrics.StateRatio
	// CanWatch reports whether a store is a Watcher.
	CanWatch = store.CanWatch
)
