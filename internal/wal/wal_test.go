package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func openTemp(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func replayAll(t *testing.T, l *Log) []string {
	t.Helper()
	var out []string
	if err := l.Replay(func(p []byte) error {
		out = append(out, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplay(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	for i := 0; i < 100; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if len(got) != 100 || got[0] != "record-000" || got[99] != "record-099" {
		t.Fatalf("replay got %d records, first %q last %q", len(got), got[0], got[len(got)-1])
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 11 || got[10] != "after-reopen" {
		t.Fatalf("replay after reopen: %v", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	l, dir := openTemp(t, Options{SegmentSize: 64})
	defer l.Close()
	payload := make([]byte, 40)
	for i := 0; i < 10; i++ {
		payload[0] = byte(i)
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(ents))
	}
	got := replayAll(t, l)
	if len(got) != 10 {
		t.Fatalf("replay across segments: %d records", len(got))
	}
	for i, r := range got {
		if r[0] != byte(i) {
			t.Fatalf("record %d out of order", i)
		}
	}
	// The active segment was created by a rotation and its name is not yet
	// durable: Sync owes the directory an fsync, once. (No test can observe
	// the fsync itself; this pins the bookkeeping around it.)
	if !l.dirDirty {
		t.Fatal("rotation left the directory clean")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.dirDirty {
		t.Fatal("Sync left the directory dirty")
	}
}

// validLength (what Open truncates to) and Replay (what recovery applies)
// read frames with one reader: whatever ends a segment, they stop at the
// same byte.
func TestFrameReaderStopsAtOneByte(t *testing.T) {
	clean := append(frame([]byte("first")), frame([]byte("second"))...)
	badCRC := frame([]byte("third"))
	badCRC[len(badCRC)-1] ^= 0xff
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"clean", nil},
		{"torn header", []byte{5, 0, 0}},
		{"torn payload", frame([]byte("third"))[:headerSize+2]},
		{"bad crc", badCRC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Written under an open log, so Replay meets the tail that a
			// fresh Open would already have truncated away.
			l, _ := openTemp(t, Options{})
			defer l.Close()
			path := l.segPath(0)
			if err := os.WriteFile(path, append(append([]byte(nil), clean...), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			valid, err := validLength(path)
			if err != nil {
				t.Fatal(err)
			}
			var replayed int64
			for _, p := range replayAll(t, l) {
				replayed += headerSize + int64(len(p))
			}
			if valid != int64(len(clean)) || replayed != valid {
				t.Fatalf("validLength %d, Replay through %d, want both %d", valid, replayed, len(clean))
			}
		})
	}
}

// TestReplayTornHugeLengthAllocatesLittle: a torn header can claim any
// length below 4 GiB. The reader must bound the frame by the bytes that
// remain before it allocates for it, so Open and Replay of one record
// followed by a header claiming 0xF0000000 bytes allocate in proportion to
// the file, not to the claim.
func TestReplayTornHugeLengthAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	torn := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(torn, 0xF0000000)
	seg := append(frame([]byte("committed")), torn...)
	if err := os.WriteFile(filepath.Join(dir, "00000000.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l)
	runtime.ReadMemStats(&after)
	if alloc, budget := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(seg))+64<<10; alloc > budget {
		t.Errorf("Open + Replay of a %d-byte segment allocated %d bytes (%d MiB), budget %d", len(seg), alloc, alloc>>20, budget)
	}
	if len(got) != 1 || got[0] != "committed" {
		t.Errorf("replayed %q, want the one committed record", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: write a torn record (header claims more
	// bytes than present).
	path := filepath.Join(dir, "00000000.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l)
	if len(got) != 5 {
		t.Fatalf("torn tail not truncated: %v", got)
	}
	// Appends after recovery land cleanly.
	if err := l.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	got = replayAll(t, l)
	if len(got) != 6 || got[5] != "recovered" {
		t.Fatalf("append after recovery: %v", got)
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("willcorrupt")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Flip a payload byte of the second record.
	path := filepath.Join(dir, "00000000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l)
	if len(got) != 1 || got[0] != "good" {
		t.Fatalf("corrupt record should stop replay: %v", got)
	}
}

// Rotate then RemoveBefore is how a checkpoint resets the log: everything
// appended before the rotation goes, everything after it stays, and a
// repeat of RemoveBefore (recovery finishing an interrupted drop) or one
// that names a segment past the active one (the log directory was lost)
// leaves a log that still takes appends.
func TestReset(t *testing.T) {
	l, dir := openTemp(t, Options{SegmentSize: 64})
	for i := 0; i < 10; i++ {
		if err := l.Append(make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	mark, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 11 {
		t.Fatalf("rotate must not drop records: %d", len(got))
	}
	for i := 0; i < 2; i++ {
		if err := l.RemoveBefore(mark); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, l); len(got) != 1 || got[0] != "fresh" {
			t.Fatalf("records after remove-before: %v", got)
		}
	}
	sz, err := l.Size()
	if err != nil || sz == 0 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	if err := l.RemoveBefore(mark + 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("later")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := replayAll(t, l); len(got) != 1 || got[0] != "later" {
		t.Fatalf("records after reopen: %v", got)
	}
	if next, err := l.Rotate(); err != nil || next != mark+6 {
		t.Errorf("Rotate after reopen = %d, %v; want %d", next, err, mark+6)
	}
}

func TestSync(t *testing.T) {
	l, _ := openTemp(t, Options{})
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

func TestClosedOperationsFail(t *testing.T) {
	l, _ := openTemp(t, Options{})
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("Append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("Sync after close: %v", err)
	}
	if err := l.Replay(func([]byte) error { return nil }); err != ErrClosed {
		t.Errorf("Replay after close: %v", err)
	}
	if _, err := l.Rotate(); err != ErrClosed {
		t.Errorf("Rotate after close: %v", err)
	}
	if err := l.RemoveBefore(1); err != ErrClosed {
		t.Errorf("RemoveBefore after close: %v", err)
	}
	if _, err := l.Size(); err != ErrClosed {
		t.Errorf("Size after close: %v", err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Errorf("double Close: %v", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	wantErr := fmt.Errorf("stop")
	n := 0
	err := l.Replay(func([]byte) error {
		n++
		if n == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr || n != 2 {
		t.Errorf("err=%v n=%d", err, n)
	}
}

func TestEmptyPayload(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0] != "" {
		t.Fatalf("empty payload: %v", got)
	}
}

// TestAppendBatchReusesFrameBuffer pins AppendBatch's one buffer: ordinary
// flushes share it (no allocation per flush), and a flush that grew it past
// the segment's soft size gives it back, so one huge batch pins nothing.
func TestAppendBatchReusesFrameBuffer(t *testing.T) {
	l, _ := openTemp(t, Options{SegmentSize: 1 << 10})
	defer l.Close()
	small := [][]byte{[]byte("a"), []byte("bb")}
	if err := l.AppendBatch(small); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { l.AppendBatch(small) }); allocs != 0 {
		t.Errorf("a small flush allocates %v times", allocs)
	}
	if err := l.Append(make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if l.frames != nil {
		t.Errorf("a %d-byte frame buffer outlived the flush that needed it", cap(l.frames))
	}
	if got := replayAll(t, l); len(got) != 2*22+1 || got[0] != "a" || got[1] != "bb" || len(got[len(got)-1]) != 4<<10 {
		t.Errorf("replayed %d records", len(got))
	}
}
