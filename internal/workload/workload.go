// Package workload generates the synthetic bioinformatics workload of §6:
// it mimics the process of updating a curated database like SWISS-PROT.
// Each transaction is a series of insertions or replacements over the
// Function relation, with update values chosen according to a heavy-tailed
// Zipfian distribution (s = 1.5) over a catalogue of protein functions.
// When a new key is inserted, a secondary table of database
// cross-references receives on average 7.3 tuples referencing the new key.
//
// Cross-reference accessions are derived deterministically from the key, so
// concurrent curators creating the same entry insert identical references
// (identical operations do not conflict); their Function values, drawn
// independently, do conflict — which is the contention the experiments
// measure.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"orchestra/internal/core"
)

// ZipfS is the Zipfian characteristic exponent from §6.
const ZipfS = 1.5

// DefaultXRefMean is the average number of cross-reference tuples per new
// primary key from §6.
const DefaultXRefMean = 7.3

// Config parameterizes a generator.
type Config struct {
	// Seed makes the stream deterministic.
	Seed int64
	// TxnSize is the number of primary-table updates per transaction.
	TxnSize int
	// KeySpace is the number of distinct (organism, protein) keys edits
	// range over; contention grows as it shrinks.
	KeySpace int
	// XRefMean overrides DefaultXRefMean when positive.
	XRefMean float64
}

// Generator produces update streams against peers' instances.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// Schema returns the workload schema: Function(organism, protein, function)
// with key (organism, protein), and XRef(organism, protein, db, accession)
// with key (organism, protein, db) and a foreign key into Function.
func Schema() *core.Schema {
	fn := core.NewRelation("Function", 2, "organism", "protein", "function")
	xref := core.NewRelation("XRef", 3, "organism", "protein", "db", "accession")
	xref.ForeignKeys = []core.ForeignKey{{Attrs: []int{0, 1}, RefRel: "Function"}}
	return core.MustSchema(fn, xref)
}

// New returns a generator.
func New(cfg Config) *Generator {
	if cfg.TxnSize <= 0 {
		cfg.TxnSize = 1
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 500
	}
	if cfg.XRefMean <= 0 {
		cfg.XRefMean = DefaultXRefMean
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Generator{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, ZipfS, 1, uint64(len(Functions)-1)),
	}
}

// key returns the i-th (organism, protein) key of the key space.
func (g *Generator) key(i int) (organism, protein string) {
	return Organisms[i%len(Organisms)], fmt.Sprintf("P%05d", i)
}

// function draws a Zipf-distributed protein function.
func (g *Generator) function() string {
	return Functions[g.zipf.Uint64()]
}

// NextUpdates produces one transaction's worth of updates for a peer:
// TxnSize primary-table insertions or replacements against the peer's
// current instance, plus cross-reference insertions for newly created keys.
// The updates are internally consistent (each primary key touched once).
func (g *Generator) NextUpdates(inst *core.Instance, peer core.PeerID) []core.Update {
	var out []core.Update
	used := map[int]bool{}
	for len(used) < g.cfg.TxnSize && len(used) < g.cfg.KeySpace {
		ki := g.rng.Intn(g.cfg.KeySpace)
		if used[ki] {
			continue
		}
		used[ki] = true
		org, prot := g.key(ki)
		keyT := core.Strs(org, prot)
		cur, exists := inst.Lookup("Function", keyT)
		if exists {
			// Replacement: curate the function value to a new draw.
			next := g.function()
			if cur[2].Str() == next {
				// Re-draw once; if the heavy tail insists, bump to the
				// lexicographically adjacent term so the update is a real
				// replacement.
				next = g.function()
				if cur[2].Str() == next {
					next = Functions[(indexOfFunction(next)+1)%len(Functions)]
				}
			}
			out = append(out, core.Modify("Function", cur, core.Strs(org, prot, next), peer))
			continue
		}
		out = append(out, core.Insert("Function", core.Strs(org, prot, g.function()), peer))
		out = append(out, g.xrefs(org, prot, peer)...)
	}
	return out
}

// xrefs builds the deterministic cross-reference insertions for a new key.
func (g *Generator) xrefs(org, prot string, peer core.PeerID) []core.Update {
	var out []core.Update
	p := g.cfg.XRefMean / float64(len(XRefDBs))
	n := 0
	for _, db := range XRefDBs {
		// Deterministic per-(key, db) membership so every peer generates
		// the same reference set for a key.
		if stableFloat(org+"/"+prot+"/"+db) < p {
			out = append(out, core.Insert("XRef",
				core.Strs(org, prot, db, accession(org, prot, db)), peer))
			n++
		}
	}
	if n == 0 {
		db := XRefDBs[stableHash(org+prot)%uint32(len(XRefDBs))]
		out = append(out, core.Insert("XRef",
			core.Strs(org, prot, db, accession(org, prot, db)), peer))
	}
	return out
}

// accession derives a stable accession string for a (key, db) pair.
func accession(org, prot, db string) string {
	return fmt.Sprintf("%s-%08x", db[:2], stableHash(org+"|"+prot+"|"+db))
}

func stableHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// stableFloat maps a string to [0, 1) deterministically.
func stableFloat(s string) float64 {
	return float64(stableHash(s)) / float64(1<<32)
}

func indexOfFunction(name string) int {
	for i, f := range Functions {
		if f == name {
			return i
		}
	}
	return 0
}
