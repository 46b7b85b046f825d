package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd/internal/durable"
	"bfbdd/internal/faultinject"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs every Append before it returns: zero acknowledged
	// records are lost even to a power failure.
	SyncAlways SyncPolicy = iota
	// SyncInterval writes every record to the OS synchronously but fsyncs
	// on a timer: a process crash (kill -9) loses nothing, a power or
	// kernel failure loses at most one interval of acknowledged records.
	SyncInterval
	// SyncNone never fsyncs explicitly: a process crash still loses
	// nothing (records reach the OS before the ack), but an OS failure
	// can drop anything not yet written back.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always|interval|none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("wal.SyncPolicy(%d)", int(p))
}

// Options tunes a Log.
type Options struct {
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval cadence; defaults to 100ms
	// Epoch is the replication epoch stamped into segment headers. Open
	// refuses (ErrFenced) when the on-disk history already carries a
	// higher epoch: a promoted replica owns the session and a stale
	// primary must not fork acknowledged history.
	Epoch uint64
}

// Counters is the shared atomic counter block behind the bfbdd_wal_*
// metrics; one instance is typically shared by every session's log.
type Counters struct {
	Appended     atomic.Uint64 // records appended
	AppendErrors atomic.Uint64 // failed appends (after rollback)
	Fsyncs       atomic.Uint64 // explicit fsyncs of segment data
	Rotations    atomic.Uint64 // segments opened by Rotate
	Truncated    atomic.Uint64 // segment files deleted by TruncateTo
	Replayed     atomic.Uint64 // records applied during recovery
	TornTails    atomic.Uint64 // torn tails discarded during replay
	ChainRejects atomic.Uint64 // checkpoint/WAL pairs refused (no chain)
}

// Log is one session's append-only operation log. Appends may come from
// multiple goroutines (the session executor, plus the close and publish
// paths); all mutation is serialized by the internal mutex. An Append
// returns only after its frame reached the operating system (and, under
// SyncAlways, the disk) — the caller acknowledges the client after that,
// which is the whole write-ahead contract.
type Log struct {
	dir  string
	id   string
	opts Options
	ctr  *Counters

	mu     sync.Mutex
	f      *os.File
	base   uint64 // active segment's base sequence
	seq    uint64 // last assigned sequence number
	off    int64  // committed byte offset in the active segment
	buf    []byte // frame assembly buffer, reused across appends
	dirty  bool   // bytes written since the last fsync
	broken bool   // a write failed and could not be rolled back
	closed bool

	flushStop chan struct{}
	flushDone chan struct{}
}

// Dir is the WAL subdirectory of a checkpoint directory.
func Dir(checkpointDir string) string { return filepath.Join(checkpointDir, "wal") }

// SegmentName is the file name of the segment starting after base. The
// fixed-width decimal keeps lexical order equal to numeric order.
func SegmentName(id string, base uint64) string {
	return fmt.Sprintf("%s.%020d.wal", id, base)
}

// ParseSegmentName inverts SegmentName.
func ParseSegmentName(name string) (id string, base uint64, ok bool) {
	return parseSeqName(name, ".wal")
}

// SnapshotName is the file name of a checkpoint snapshot taken at seq.
func SnapshotName(id string, seq uint64) string {
	return fmt.Sprintf("%s.%020d.snap", id, seq)
}

// ParseSnapshotName inverts SnapshotName.
func ParseSnapshotName(name string) (id string, seq uint64, ok bool) {
	return parseSeqName(name, ".snap")
}

// parseSeqName splits a name made as <id>.<20-digit sequence><suffix>.
func parseSeqName(name, suffix string) (id string, seq uint64, ok bool) {
	rest, found := strings.CutSuffix(name, suffix)
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '.')
	if i < 0 || len(rest)-i-1 != 20 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], n, true
}

// Open creates (or truncates) the segment starting after base and
// returns a log whose next record gets sequence base+1. The segment file
// and its directory entry are made durable before Open returns, so a
// crash right after cannot lose the segment boundary.
func Open(dir, id string, base uint64, opts Options, ctr *Counters) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if ctr == nil {
		ctr = &Counters{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if max, err := MaxEpoch(dir, id); err == nil && max > opts.Epoch {
		return nil, fmt.Errorf("%w: on-disk epoch %d, caller epoch %d", ErrFenced, max, opts.Epoch)
	}
	l := &Log{dir: dir, id: id, opts: opts, ctr: ctr, base: base, seq: base}
	f, err := createSegment(dir, id, base, opts.Epoch)
	if err != nil {
		return nil, err
	}
	l.f = f
	l.off = HeaderSize
	if opts.Policy == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// createSegment stages a new segment file: header written, file synced,
// directory synced.
func createSegment(dir, id string, base, epoch uint64) (*os.File, error) {
	path := filepath.Join(dir, SegmentName(id, base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeHeader(base, epoch)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := durable.SyncDir(dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// Seq returns the sequence number of the last appended record.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Append journals recs as one commit group: one frame per record, one
// write to the OS, and — under SyncAlways — one fsync for the whole
// group. On success the records' sequence numbers are l.Seq()-len(recs)+1
// ... l.Seq(). On failure nothing is appended: the file is rewound to the
// pre-call offset, or, if that rewind itself fails, the log latches
// broken and refuses all future appends (the on-disk prefix must stay an
// exact prefix of the acknowledged history; a hole in the middle would
// make every later record unreachable to recovery).
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.broken:
		return ErrBroken
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.WALAppend); err != nil {
			l.ctr.AppendErrors.Add(1)
			return err
		}
	}
	l.buf = l.buf[:0]
	for i, rec := range recs {
		payload := EncodeRecord(l.seq+uint64(i)+1, rec)
		var frame [frameOverhead]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
		l.buf = append(l.buf, frame[:]...)
		l.buf = append(l.buf, payload...)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		// Rewind so a partially written group does not become a torn
		// middle once later appends succeed.
		if terr := l.f.Truncate(l.off); terr != nil {
			l.broken = true
		} else if _, serr := l.f.Seek(l.off, 0); serr != nil {
			l.broken = true
		}
		l.ctr.AppendErrors.Add(1)
		return err
	}
	l.off += int64(len(l.buf))
	l.seq += uint64(len(recs))
	l.dirty = true
	l.ctr.Appended.Add(uint64(len(recs)))
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// The group may or may not be durable; refusing further
			// appends keeps "acknowledged" and "recoverable" from
			// diverging silently.
			l.broken = true
			l.ctr.AppendErrors.Add(1)
			return err
		}
	}
	return nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.WALSync); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.ctr.Fsyncs.Add(1)
	return nil
}

// Sync forces the active segment to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// flushLoop is the SyncInterval group-commit timer.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Rotate makes the current segment durable and opens a fresh one based at
// the current sequence, so records journaled after a checkpoint land in a
// segment the checkpoint does not cover. It is a no-op when the active
// segment is already based at the current sequence (nothing was appended
// since the last rotation). On failure the old segment stays active —
// the chain is still valid, recovery just replays a longer tail.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.broken:
		return ErrBroken
	case l.base == l.seq:
		return nil
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.WALRotate); err != nil {
			return err
		}
	}
	// The old segment must be durable before the new one exists: the new
	// segment's base asserts everything up to it is on disk.
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.startSegment(l.opts.Epoch)
}

// startSegment replaces the active segment with a fresh one based at the
// current sequence and stamped with epoch; a new base is a rotation.
func (l *Log) startSegment(epoch uint64) error {
	f, err := createSegment(l.dir, l.id, l.seq, epoch)
	if err != nil {
		return err
	}
	if l.base != l.seq {
		l.ctr.Rotations.Add(1)
	}
	old := l.f
	l.f, l.base, l.off, l.dirty, l.opts.Epoch = f, l.seq, HeaderSize, false, epoch
	return old.Close()
}

// Epoch returns the replication epoch stamped into new segments.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Epoch
}

// SetEpoch raises the epoch stamped into segment headers (promotion).
// The active segment is replaced so the new epoch is on disk before
// SetEpoch returns: rewritten in place if it holds no records,
// otherwise rotated away. Lowering the epoch is refused.
func (l *Log) SetEpoch(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.broken:
		return ErrBroken
	case epoch == l.opts.Epoch:
		return nil
	case epoch < l.opts.Epoch:
		return fmt.Errorf("%w: cannot lower epoch %d to %d", ErrFenced, l.opts.Epoch, epoch)
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.startSegment(epoch)
}

// TruncateTo deletes this log's segments that a checkpoint at seq fully
// covers (base < seq), never the active segment. Failures are returned
// but benign: leftover covered segments only make recovery skip more
// records.
func (l *Log) TruncateTo(seq uint64) error {
	l.mu.Lock()
	active := l.base
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.WALTruncate); err != nil {
			return err
		}
	}
	segs, err := ListSegments(l.dir, l.id)
	if err != nil {
		return err
	}
	var firstErr error
	removed := 0
	for _, sg := range segs {
		if sg.Base >= seq || sg.Base == active {
			continue
		}
		if err := os.Remove(sg.Path); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			removed++
		}
	}
	if removed > 0 {
		l.ctr.Truncated.Add(uint64(removed))
		if err := durable.SyncDir(l.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes, fsyncs, and closes the active segment. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	stop := l.flushStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	return err
}

// RemoveAll deletes every segment of id in dir (session deletion).
func RemoveAll(dir, id string) {
	segs, err := ListSegments(dir, id)
	if err != nil {
		return
	}
	for _, sg := range segs {
		os.Remove(sg.Path)
	}
}

// Segment describes one on-disk segment file.
type Segment struct {
	Path string
	Base uint64
}

// ListSegments returns id's segments in ascending base order. A missing
// directory is an empty list, not an error.
func ListSegments(dir, id string) ([]Segment, error) {
	var segs []Segment
	err := scanSegments(dir, func(name, sid string, base uint64) {
		if sid == id {
			segs = append(segs, Segment{Path: filepath.Join(dir, name), Base: base})
		}
	})
	sort.Slice(segs, func(i, j int) bool { return segs[i].Base < segs[j].Base })
	return segs, err
}

// SessionIDs returns the distinct session ids that have segments in dir.
func SessionIDs(dir string) ([]string, error) {
	seen := make(map[string]bool)
	var ids []string
	err := scanSegments(dir, func(_, id string, _ uint64) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	})
	sort.Strings(ids)
	return ids, err
}

// scanSegments calls fn for each segment file in dir; a missing
// directory holds none.
func scanSegments(dir string, fn func(name, id string, base uint64)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if id, base, ok := ParseSegmentName(e.Name()); ok && !e.IsDir() {
			fn(e.Name(), id, base)
		}
	}
	return nil
}
