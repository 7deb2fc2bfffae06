package central

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// benchTxnsPerPublish is the batch size each publisher ships per round; small
// enough that per-publish overhead (epoch allocation, commit) stays visible,
// large enough that payload encoding matters.
const benchTxnsPerPublish = 4

// genBatches builds one fresh batch of unique transactions per publisher,
// outside the benchmark timer. Each publisher owns an engine so the
// transactions carry real provenance and encodings.
func genBatches(b *testing.B, engines []*core.Engine, round int) [][]store.PublishedTxn {
	b.Helper()
	out := make([][]store.PublishedTxn, len(engines))
	for p, eng := range engines {
		batch := make([]store.PublishedTxn, 0, benchTxnsPerPublish)
		for k := 0; k < benchTxnsPerPublish; k++ {
			x, antes, err := eng.NewLocalTransaction(core.Insert("F",
				core.Strs(fmt.Sprintf("org%d", p), fmt.Sprintf("prot-%d-%d", round, k), "fn"),
				eng.Peer()))
			if err != nil {
				b.Fatal(err)
			}
			batch = append(batch, store.PublishedTxn{Txn: x, Antecedents: antes})
		}
		out[p] = batch
	}
	return out
}

// BenchmarkConcurrentPublish measures publish throughput with P publishers
// racing into one store. One op = P publishers each shipping one batch of
// benchTxnsPerPublish transactions; the per-transaction cost is reported as
// the custom ns/txn metric.
func BenchmarkConcurrentPublish(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	ctx := context.Background()
	for _, pubs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("publishers=%d", pubs), func(b *testing.B) {
			s := MustOpenMemory(schema)
			defer s.Close()
			engines := make([]*core.Engine, pubs)
			for p := 0; p < pubs; p++ {
				id := core.PeerID(fmt.Sprintf("pub%d", p))
				engines[p] = core.NewEngine(id, schema, core.TrustAll(1))
				if err := s.RegisterPeer(ctx, id, core.TrustAll(1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batches := genBatches(b, engines, i)
				errs := make([]error, pubs)
				b.StartTimer()
				done := make(chan int, pubs)
				for p := 0; p < pubs; p++ {
					go func(p int) {
						_, errs[p] = s.Publish(ctx, engines[p].Peer(), batches[p])
						done <- p
					}(p)
				}
				for p := 0; p < pubs; p++ {
					<-done
				}
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pubs*benchTxnsPerPublish), "ns/txn")
		})
	}
}
