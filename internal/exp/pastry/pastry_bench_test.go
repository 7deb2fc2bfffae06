package pastry

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/simnet"
)

func benchRing(b *testing.B, n int) *Ring {
	b.Helper()
	net := simnet.NewVirtual(0) // no latency: measure routing work itself
	ring := NewRing(net)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("peer%03d", i)
		app := newKVApp(addr)
		if _, err := ring.Join(addr, app); err != nil {
			b.Fatal(err)
		}
	}
	return ring
}

func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{10, 50} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			ring := benchRing(b, n)
			nodes := ring.Nodes()
			ctx := context.Background()
			body := MustEncode(kvArgs{K: "k", V: "v"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := fmt.Sprintf("key-%d", i)
				if _, err := nodes[i%n].RouteString(ctx, k, "kv.put", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOwnerLookup(b *testing.B) {
	ring := benchRing(b, 50)
	keys := make([]ID, 1024)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("key-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Owner(keys[i%len(keys)])
	}
}

func BenchmarkJoinRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := simnet.NewVirtual(0)
		ring := NewRing(net)
		b.StartTimer()
		for j := 0; j < 25; j++ {
			addr := fmt.Sprintf("peer%03d", j)
			if _, err := ring.Join(addr, newKVApp(addr)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
