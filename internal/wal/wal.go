// Package wal implements a segmented, CRC-checked, append-only write-ahead
// log used by the reldb relational engine for durability: every committed
// transaction is framed and appended; on open, the log is replayed and any
// torn tail (from a crash mid-append or mid-flush) is truncated.
//
// Record framing: 4-byte little-endian payload length, 4-byte CRC-32
// (Castagnoli) of the payload, payload bytes. Records never straddle
// segment files; a segment whose size reaches the rotation threshold is
// synced, closed, and succeeded by the next-numbered segment.
//
// There is one append path and one sync path. AppendBatch frames a group of
// records and writes them with a single Write call — the primitive behind
// reldb's group commit, where concurrent committers share one flush; Append
// is AppendBatch of one record. Neither fsyncs: a caller that needs the
// records on stable storage calls Sync after appending (reldb does, once
// per group flush, under SyncOnCommit). A record is atomic on recovery:
// replay stops at the first record whose frame is torn or whose checksum
// fails, so a crash mid-flush drops the uncommitted tail and nothing else.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	headerSize = 8
	// DefaultSegmentSize is the rotation threshold for segment files.
	DefaultSegmentSize = 4 << 20
	segSuffix          = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is a segmented append-only log. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	segSize int64
	closed  bool

	seg    *os.File // active segment
	segIdx int      // index of the active segment
	segOff int64    // size of the active segment
	// dirDirty is set when a segment file was created since the directory
	// was last fsynced: the records in it are only as durable as its name.
	dirDirty bool
	// frames is AppendBatch's frame buffer, reused across flushes.
	frames []byte
}

// Options configure a Log.
type Options struct {
	// SegmentSize is the rotation threshold; DefaultSegmentSize if zero.
	SegmentSize int64
}

// Open opens (or creates) the log in dir, replaying existing segments to
// find the tail and truncating any torn final record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, segSize: opts.SegmentSize}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(0, 0); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	valid, err := validLength(l.segPath(last))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.segPath(last), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.seg, l.segIdx, l.segOff = f, last, valid
	return l, nil
}

// segPath returns the path of segment i.
func (l *Log) segPath(i int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d%s", i, segSuffix))
}

// segments lists existing segment indexes in order.
func (l *Log) segments() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// openSegment creates and activates segment idx. The new name is not
// durable until the directory is fsynced; syncLocked does that.
func (l *Log) openSegment(idx int, off int64) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.seg, l.segIdx, l.segOff = f, idx, off
	l.dirDirty = true
	return nil
}

// readFrames is the one frame reader: it reads the segment at path in one
// read, hands fn each intact record in order, and returns the byte length
// of the prefix those records occupy. It stops — without error — at the end
// of the file or at the first torn header, torn payload or checksum
// mismatch; an error from fn stops it too and is returned. A frame's length
// is believed only up to the bytes that remain, so a torn header claiming
// more allocates nothing. The payload fn gets aliases the segment buffer:
// fn copies what it keeps.
func readFrames(path string, fn func(payload []byte) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for len(data)-off >= headerSize {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		start := off + headerSize
		if uint64(n) > uint64(len(data)-start) {
			break // torn payload
		}
		end := start + int(n)
		payload := data[start:end:end] // capped: an append by fn cannot reach the next frame
		if crc32.Checksum(payload, castagnoli) != crc {
			break // corrupt
		}
		if err := fn(payload); err != nil {
			return int64(off), err
		}
		off = end
	}
	return int64(off), nil // clean end or torn header
}

// validLength returns the byte length of a segment's valid prefix.
func validLength(path string) (int64, error) {
	return readFrames(path, func([]byte) error { return nil })
}

// Append frames and appends one record: AppendBatch with a single-record
// group. It returns after the record is buffered in the OS.
func (l *Log) Append(payload []byte) error {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch frames and appends a group of records with one Write call —
// the group-commit flush path; Sync afterwards makes the group durable.
// The records land in slice order; recovery sees an all-or-nothing
// of the group: rotation happens before the batch (never inside it, so a
// segment may overshoot the threshold by one group, exactly as a single
// oversized Append overshoots it), the whole group goes down in one
// write, and a failed or partial write is truncated away so no prefix of
// a failed group survives to replay.
func (l *Log) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segOff >= l.segSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	buf := l.frames[:0]
	for _, p := range payloads {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	// Keep the buffer for the next flush, unless this one was so large — a
	// batch past the segment's soft size — that keeping it would pin that
	// much memory for good.
	l.frames = buf
	if int64(cap(buf)) > l.segSize {
		l.frames = nil
	}
	if _, err := l.seg.Write(buf); err != nil {
		// A short write would otherwise leave a durable prefix of a group
		// whose committers were all told it failed; drop it.
		if terr := l.seg.Truncate(l.segOff); terr == nil {
			l.seg.Seek(l.segOff, io.SeekStart)
		}
		return fmt.Errorf("wal: append batch: %w", err)
	}
	l.segOff += int64(len(buf))
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.openSegment(l.segIdx+1, 0)
}

// syncLocked flushes the active segment to stable storage and, if a
// segment was created since the last time, the directory that names it:
// without that a power failure can lose a synced segment with its name.
func (l *Log) syncLocked() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if !l.dirDirty {
		return nil
	}
	if err := SyncDir(l.dir); err != nil {
		return err
	}
	l.dirDirty = false
	return nil
}

// SyncDir fsyncs a directory, making the names created or renamed in it
// durable; reldb uses it after installing a snapshot file.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	return nil
}

// Sync flushes everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Replay invokes fn for every valid record across all segments, in append
// order. It is typically called once after Open, before new appends. Each
// segment is read whole, and the payload fn gets is a slice of that buffer:
// fn copies what it keeps, or keeping it holds the whole segment in memory.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if _, err := readFrames(l.segPath(idx), fn); err != nil {
			return err
		}
	}
	return nil
}

// Rotate seals the log: the active segment is synced and closed and a fresh
// one takes its place. It returns the new segment's index — every record
// appended so far lives in a segment numbered below it, every later record
// at or above it. A checkpoint rotates, records the index in the snapshot
// it writes, and then calls RemoveBefore with it.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.segIdx, nil
}

// RemoveBefore deletes every segment numbered below idx, oldest first, so a
// crash part-way leaves a suffix of them; callers that recorded idx durably
// call RemoveBefore(idx) again on open, before Replay, and converge. If the
// active segment is itself below idx (the log directory was lost or
// restored without the state that recorded idx), the log continues at idx.
func (l *Log) RemoveBefore(idx int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segIdx < idx {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		if err := l.openSegment(idx, 0); err != nil {
			return err
		}
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, i := range segs {
		if i >= idx {
			break
		}
		if err := os.Remove(l.segPath(i)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// Size returns the total byte size of all segments.
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	segs, err := l.segments()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, idx := range segs {
		fi, err := os.Stat(l.segPath(idx))
		if err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if err := l.syncLocked(); err != nil {
		l.seg.Close()
		return err
	}
	return l.seg.Close()
}
