package btree

import (
	"math/rand"
	"testing"
)

func BenchmarkPutSequential(b *testing.B) {
	tr := intTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(i, "v")
	}
}

func BenchmarkPutRandom(b *testing.B) {
	tr := intTree()
	r := rand.New(rand.NewSource(1))
	keys := make([]int, b.N)
	for i := range keys {
		keys[i] = r.Int()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], "v")
	}
}

func BenchmarkGet(b *testing.B) {
	tr := intTree()
	const n = 100_000
	for i := 0; i < n; i++ {
		tr.Put(i, "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(i % n)
	}
}

func BenchmarkDelete(b *testing.B) {
	tr := intTree()
	for i := 0; i < b.N; i++ {
		tr.Put(i, "v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Delete(i)
	}
}
