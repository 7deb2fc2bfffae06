package wal

import "testing"

func BenchmarkAppend(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(byteSize(size), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendSync(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 128)
	const records = 10_000
	for i := 0; i < records; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(func([]byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d", n)
		}
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1024:
		return "1KiB"
	default:
		return "64B"
	}
}
