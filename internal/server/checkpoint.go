package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/retry"
	"bfbdd/internal/wal"
)

// Durability file layout, per session, inside Config.CheckpointDir:
//
//	<id>.<seq>.snap      session snapshot: the state after applying every
//	                     WAL record with sequence <= seq
//	<id>.meta.json       the SessionOptions the session was created with,
//	                     plus the WAL base of the newest checkpoint
//	wal/<id>.<base>.wal  write-ahead log segments (bfbdd/internal/wal)
//
// A session's durable state is snapshot base + WAL tail. Checkpoint
// writes are crash-safe: each file is produced as a same-directory temp
// file, fsynced, and moved into place with os.Rename. The snapshot is
// renamed before the meta sidecar, and the snapshot's sequence lives in
// its name — so the newest <id>.<seq>.snap is authoritative no matter
// where a crash lands between the two renames. Recovery restores the
// newest snapshot, checks that the meta sidecar's recorded base does not
// exceed it (a newer sidecar means the matching snapshot is gone — the
// pair does not chain and is refused), then replays WAL records with
// sequence > seq. Rotation happens inside the checkpoint's executor task,
// immediately after the snapshot is produced, so segment boundaries
// coincide exactly with snapshot bases; truncation deletes fully covered
// segments only after the checkpoint commits.
const (
	snapSuffix = ".snap" // also the legacy unversioned name <id>.snap (= seq 0)
	metaSuffix = ".meta.json"
)

// sessionMeta is the sidecar JSON: the wire options the session was
// created with, plus the WAL sequence its newest checkpoint was taken
// at. Sidecars written before the WAL existed carry no wal_base_seq and
// parse as base 0, which chains from any snapshot.
type sessionMeta struct {
	SessionOptions
	WalBaseSeq uint64 `json:"wal_base_seq,omitempty"`
	// Epoch is the replication epoch the checkpoint was taken under.
	// Promotion bumps the epoch and re-checkpoints, so a fenced old
	// primary's sidecars are recognizably stale next to its segments.
	Epoch uint64 `json:"epoch,omitempty"`
}

// checkpointer periodically persists every live session to disk and
// removes the files of sessions that are deleted or expire. It is created
// only when Config.CheckpointDir is set.
type checkpointer struct {
	dir      string
	walDir   string
	walOpts  wal.Options
	interval time.Duration
	reg      *registry
	m        *metrics

	// commitMu serializes the rename-into-place step of checkpointSession
	// against remove. Without it, a session closed between its executor
	// snapshot and the renames would have its files deleted by the onClose
	// hook first and then resurrected by the stale renames, bringing the
	// deleted session back on the next startup.
	commitMu sync.Mutex

	// failing tracks sessions whose last checkpoint round failed after
	// exhausting its retries, so the log carries one line at the first
	// failure and one at recovery instead of a line per interval.
	failingMu sync.Mutex
	failing   map[string]struct{}

	// Replication hooks, all optional (nil outside replicated
	// deployments) and set by the server after newCheckpointer but
	// before recover()/run() starts:
	//
	//	epoch     current replication epoch, stamped into WAL segment
	//	          headers on open/rotate and into meta sidecars
	//	ship      commit notification per journal append, wired into
	//	          recovered sessions (created sessions get it from the
	//	          registry's wal hooks)
	//	minAcked  lowest sequence acked by any connected follower, a
	//	          truncation floor so shipping never races deletion
	//	retention how far behind snapSeq the floor may hold segments
	//	          back (records) before laggards are cut loose
	epoch     func() uint64
	ship      func(sid string, seq uint64)
	minAcked  func(sid string) (uint64, bool)
	retention uint64

	stop chan struct{}
	done chan struct{}
}

// Retry policy for transient checkpoint failures: capped exponential
// backoff with jitter, bounded so one wedged disk cannot stall the
// checkpoint loop for more than a few seconds per session per round.
const (
	checkpointRetryBase = 50 * time.Millisecond
	checkpointRetryCap  = 2 * time.Second
	checkpointAttempts  = 5
)

// errCheckpointSkipped reports that a session was closed between its
// snapshot and the rename commit point; the checkpoint was correctly
// discarded, so it is neither a write nor a failure.
var errCheckpointSkipped = errors.New("session closed mid-checkpoint")

func newCheckpointer(cfg Config, walOpts wal.Options, reg *registry, m *metrics) *checkpointer {
	c := &checkpointer{
		dir:      cfg.CheckpointDir,
		walDir:   wal.Dir(cfg.CheckpointDir),
		walOpts:  walOpts,
		interval: cfg.CheckpointInterval,
		reg:      reg,
		m:        m,
		failing:  make(map[string]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// A deleted or expired session must not be resurrected by recovery.
	reg.onClose = c.remove
	return c
}

// run is the periodic checkpoint loop; interval <= 0 disables it (only
// explicit CheckpointNow calls and the final shutdown pass write then).
func (c *checkpointer) run() {
	defer close(c.done)
	if c.interval <= 0 {
		<-c.stop
		return
	}
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.checkpointAll()
		}
	}
}

func (c *checkpointer) shutdown() {
	close(c.stop)
	<-c.done
}

// checkpointAll snapshots every live session; one session's failure never
// blocks the others.
func (c *checkpointer) checkpointAll() {
	for _, s := range c.reg.list() {
		if s.isPoisoned() {
			// A poisoned session's in-memory state is suspect; its last
			// good checkpoint on disk stays authoritative.
			continue
		}
		switch err := c.checkpointWithRetry(s); {
		case errors.Is(err, errCheckpointSkipped):
			// Benign race with delete/expiry; the close path owns cleanup.
		case err != nil:
			c.m.checkpointErrors.Add(1)
			c.m.checkpointFailures.Add(1)
			c.noteFailing(s.id, err)
		default:
			c.m.checkpointsWritten.Add(1)
			c.noteRecovered(s.id)
		}
	}
}

// checkpointWithRetry drives one session's checkpoint through the shared
// retry policy: transient failures back off exponentially (with jitter,
// so many sessions hitting the same sick disk don't retry in lockstep)
// up to checkpointAttempts; shutdown aborts the backoff wait
// immediately. The staged-temp-then-rename protocol makes every attempt
// independent — a failed attempt leaves only a temp file (cleaned by its
// own defer), never a torn committed checkpoint.
func (c *checkpointer) checkpointWithRetry(s *session) error {
	attempt := 0
	return retry.Do(c.stop, retry.Policy{
		Base:     checkpointRetryBase,
		Cap:      checkpointRetryCap,
		Attempts: checkpointAttempts,
	}, func() error {
		attempt++
		err := c.checkpointSession(s)
		if errors.Is(err, errCheckpointSkipped) {
			// Benign race with delete/expiry; retrying would only
			// re-discover the session is gone.
			return retry.Permanent(err)
		}
		if err != nil && attempt < checkpointAttempts {
			c.m.checkpointRetries.Add(1)
		}
		return err
	})
}

// noteFailing logs the first failure of a session's checkpoint stream.
func (c *checkpointer) noteFailing(id string, err error) {
	c.failingMu.Lock()
	_, already := c.failing[id]
	if !already {
		c.failing[id] = struct{}{}
	}
	c.failingMu.Unlock()
	if !already {
		log.Printf("server: checkpoint of session %s failing: %v (retrying every interval)", id, err)
	}
}

// noteRecovered logs the end of a session's checkpoint failure streak.
func (c *checkpointer) noteRecovered(id string) {
	c.failingMu.Lock()
	_, was := c.failing[id]
	delete(c.failing, id)
	c.failingMu.Unlock()
	if was {
		log.Printf("server: checkpoint of session %s recovered", id)
	}
}

// checkpointSession writes one session's snapshot + meta sidecar with
// atomic-rename semantics. The snapshot is produced on the session's
// executor, so it sees a quiescent manager; the same executor task
// captures the WAL sequence the snapshot covers and rotates the log, so
// the new segment's base coincides exactly with the snapshot's sequence
// (executor serialization guarantees no append lands in between). File
// finalization happens back on the caller to keep the executor stall
// minimal. Both files are staged as temps first; the renames run under
// commitMu with a registry liveness re-check, so a session deleted or
// expired while its snapshot was being written is discarded
// (errCheckpointSkipped) instead of renamed into place after the onClose
// hook already removed its files. After a successful commit, snapshots
// the new one supersedes and WAL segments it fully covers are deleted.
func (c *checkpointer) checkpointSession(s *session) error {
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.CheckpointCreate); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(c.dir, "."+s.id+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	var snapSeq uint64
	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = s.exec.submit(context.Background(), func(context.Context) error {
		if s.wal != nil {
			snapSeq = s.wal.Seq()
		}
		if err := s.snapshotTo(bw); err != nil {
			return err
		}
		if s.wal != nil {
			// Rotate here, not after the commit: any append between the
			// snapshot and a later rotation would land in the old segment
			// and be stranded by truncation. A failed rotation is benign —
			// the old segment stays active and recovery just replays a
			// longer tail — so it must not fail the checkpoint.
			if rerr := s.wal.Rotate(); rerr != nil {
				log.Printf("server: wal rotation of session %s failed: %v", s.id, rerr)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.CheckpointWrite); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.CheckpointSync); err != nil {
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}

	metaTmp, err := c.writeMetaTemp(s, snapSeq)
	if err != nil {
		return err
	}
	defer os.Remove(metaTmp) // no-op once renamed away

	c.commitMu.Lock()
	unlock := true
	defer func() {
		if unlock {
			c.commitMu.Unlock()
		}
	}()
	if !c.reg.live(s.id) {
		return fmt.Errorf("%w: %s", errCheckpointSkipped, s.id)
	}
	// Each rename has its own fault point call so crash-consistency tests
	// can fail the commit between the snapshot and the sidecar: the
	// snapshot lands first, and its name carries its sequence, so a crash
	// in between leaves the new snapshot authoritative with a stale (but
	// older, therefore chaining) sidecar.
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.CheckpointRename); err != nil {
			return err
		}
	}
	if err := os.Rename(tmpName, filepath.Join(c.dir, wal.SnapshotName(s.id, snapSeq))); err != nil {
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.CheckpointRename); err != nil {
			return err
		}
	}
	if err := os.Rename(metaTmp, filepath.Join(c.dir, s.id+metaSuffix)); err != nil {
		return err
	}
	committed = true // both renames landed; nothing to clean up
	// Superseded snapshots go away under the same commitMu hold, so a
	// concurrent remove() cannot interleave.
	for _, sn := range c.snapshotsFor(s.id) {
		if sn.seq < snapSeq {
			os.Remove(sn.path)
		}
	}
	unlock = false
	c.commitMu.Unlock()

	// The snapshot now covers every record at or below snapSeq; segments
	// that end there are dead weight — except those a connected follower
	// still needs. The truncation point is held back to the slowest
	// follower's acked sequence, bounded by the retention budget so one
	// wedged follower cannot pin segments forever (past the budget it is
	// cut loose and re-bootstraps from a snapshot). Failure is benign
	// (recovery skips covered records), so log and carry on.
	if s.wal != nil {
		trunc := snapSeq
		if c.minAcked != nil {
			if acked, ok := c.minAcked(s.id); ok {
				floor := uint64(0)
				if snapSeq > c.retention {
					floor = snapSeq - c.retention
				}
				if acked < floor {
					acked = floor
				}
				if acked < trunc {
					trunc = acked
				}
			}
		}
		if terr := s.wal.TruncateTo(trunc); terr != nil {
			log.Printf("server: wal truncation of session %s failed: %v", s.id, terr)
		}
	}
	return nil
}

// writeMetaTemp stages the session's meta sidecar as a temp file and
// returns its path; the caller renames it into place (or removes it).
func (c *checkpointer) writeMetaTemp(s *session, snapSeq uint64) (string, error) {
	meta := sessionMeta{SessionOptions: s.opts, WalBaseSeq: snapSeq}
	if c.epoch != nil {
		meta.Epoch = c.epoch()
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(c.dir, "."+s.id+".meta-*")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", err
	}
	return tmpName, nil
}

// snapFile is one on-disk snapshot of a session.
type snapFile struct {
	path string
	seq  uint64
}

// snapshotsFor lists id's snapshots in ascending sequence order,
// including a legacy unversioned <id>.snap (sequence 0).
func (c *checkpointer) snapshotsFor(id string) []snapFile {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var snaps []snapFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if name == id+snapSuffix {
			snaps = append(snaps, snapFile{path: filepath.Join(c.dir, name)})
			continue
		}
		if sid, seq, ok := wal.ParseSnapshotName(name); ok && sid == id {
			snaps = append(snaps, snapFile{path: filepath.Join(c.dir, name), seq: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return snaps
}

// purge deletes every durability file of id: snapshots (versioned and
// legacy), the meta sidecar, and all WAL segments.
func (c *checkpointer) purge(id string) {
	for _, sn := range c.snapshotsFor(id) {
		os.Remove(sn.path)
	}
	os.Remove(filepath.Join(c.dir, id+metaSuffix))
	wal.RemoveAll(c.walDir, id)
}

// remove deletes a session's durability files (registry onClose hook).
// It takes commitMu so it cannot interleave with checkpointSession's
// rename commit: either the renames land first and the files are deleted
// here, or the delete lands first and the liveness re-check discards the
// stale checkpoint.
func (c *checkpointer) remove(id string) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	c.purge(id)
}

// recover rebuilds sessions from the durability directory at startup:
// newest snapshot first, then the WAL tail replayed on the session's
// executor under the original handle numbering, torn tails discarded.
// Sessions that never reached a checkpoint are rebuilt from their WAL
// alone (the creation record carries the engine configuration). Leftover
// temp files from a crash mid-checkpoint are swept. Individual failures
// are logged and counted, never fatal — a server with one corrupt
// session still starts with the others.
func (c *checkpointer) recover() {
	start := time.Now()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		log.Printf("server: cannot read checkpoint dir %s: %v", c.dir, err)
		return
	}
	ids := make(map[string]struct{})
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, ".") {
			// Unrenamed temp file: the checkpoint it belonged to never
			// committed.
			os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if id, ok := strings.CutSuffix(name, snapSuffix); ok {
			if sid, _, versioned := wal.ParseSnapshotName(name); versioned {
				id = sid
			}
			if validSessionID(id) {
				ids[id] = struct{}{}
			}
		}
	}
	walIDs, err := wal.SessionIDs(c.walDir)
	if err != nil {
		log.Printf("server: cannot read wal dir %s: %v", c.walDir, err)
	}
	for _, id := range walIDs {
		if validSessionID(id) {
			ids[id] = struct{}{}
		}
	}
	ordered := make([]string, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Strings(ordered)
	for _, id := range ordered {
		if err := c.recoverSession(id); err != nil {
			c.m.checkpointErrors.Add(1)
			log.Printf("server: recovery of session %s failed: %v", id, err)
		} else {
			c.m.sessionsRecovered.Add(1)
		}
	}
	c.m.walRecoveryNs.Store(time.Since(start).Nanoseconds())
}

// recoverSession rebuilds one session: restore the newest snapshot (or
// recreate from the WAL creation record), verify the checkpoint/WAL pair
// chains, replay the tail, and attach a live log at the end of the
// replayed history. A replayed close record means the session's deletion
// was acknowledged — it is torn back down instead of resurrected.
func (c *checkpointer) recoverSession(id string) error {
	snaps := c.snapshotsFor(id)
	var base uint64
	var snapPath string
	if n := len(snaps); n > 0 {
		base, snapPath = snaps[n-1].seq, snaps[n-1].path
	}
	meta, metaErr := c.readMeta(id)
	if metaErr == nil && meta.WalBaseSeq > base {
		// The sidecar was written by a checkpoint whose snapshot is gone
		// (deleted, or never landed). Restoring the older snapshot under
		// a WAL whose tail chains from the newer one would silently lose
		// the difference — refuse the pair instead.
		c.m.wal.ChainRejects.Add(1)
		return fmt.Errorf("checkpoint/WAL chain broken: sidecar records base %d, newest snapshot is %d", meta.WalBaseSeq, base)
	}

	var s *session
	if snapPath != "" {
		if metaErr != nil {
			return fmt.Errorf("meta sidecar: %w", metaErr)
		}
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		s, err = c.reg.restore(id, meta.SessionOptions, f, nil)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		// No snapshot: the session is reconstructible only if its WAL
		// reaches back to the creation record.
		opts, err := c.createOptions(id)
		if err != nil {
			return err
		}
		s, err = c.reg.createAt(id, opts, false)
		if err != nil {
			return err
		}
	}

	stats, closed, err := c.replayInto(s, base)
	if err != nil {
		c.reg.discard(id)
		return fmt.Errorf("wal replay: %w", err)
	}
	c.m.wal.Replayed.Add(stats.Replayed)
	c.m.wal.TornTails.Add(uint64(stats.TornTails))
	if stats.Gap {
		// Records beyond the reachable chain exist but cannot be applied:
		// acknowledged history would be silently missing from the
		// recovered state. Refuse, like a broken checkpoint pair.
		c.m.wal.ChainRejects.Add(1)
		c.reg.discard(id)
		return fmt.Errorf("wal chain broken: records reachable only from base %d, replay ends at %d", stats.GapBase, stats.LastSeq)
	}
	if closed {
		// The close was acknowledged; finishing it (and removing the
		// files via onClose) is the correct recovery.
		_ = c.reg.closeSession(id)
		return nil
	}
	o := c.walOpts
	if c.epoch != nil {
		o.Epoch = c.epoch()
	}
	lg, err := wal.Open(c.walDir, id, stats.LastSeq, o, &c.m.wal)
	if err != nil {
		c.reg.discard(id)
		return fmt.Errorf("wal attach: %w", err)
	}
	s.wal = lg
	if c.ship != nil {
		sid := s.id
		s.ship = func(seq uint64) { c.ship(sid, seq) }
	}
	return nil
}

func (c *checkpointer) readMeta(id string) (sessionMeta, error) {
	var meta sessionMeta
	data, err := os.ReadFile(filepath.Join(c.dir, id+metaSuffix))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("bad meta sidecar: %v", err)
	}
	return meta, nil
}

// errStopScan aborts a WAL scan early once the wanted record was seen.
var errStopScan = errors.New("stop scan")

// createOptions digs the session-creation record (sequence 1) out of the
// WAL for a session that never reached a checkpoint.
func (c *checkpointer) createOptions(id string) (SessionOptions, error) {
	var opts SessionOptions
	found := false
	_, err := wal.ReplayTail(c.walDir, id, 0, func(e wal.Entry) error {
		cr, ok := e.Rec.(wal.CreateRec)
		if !ok {
			return fmt.Errorf("first wal record is %v, want create", e.Rec.Kind())
		}
		if err := json.Unmarshal(cr.Options, &opts); err != nil {
			return fmt.Errorf("bad creation record: %v", err)
		}
		found = true
		return errStopScan
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return opts, err
	}
	if !found {
		return opts, errors.New("no snapshot and no wal creation record")
	}
	return opts, nil
}

// replayInto replays id's WAL records with sequence > base into the
// session's manager and handle table, on the session's executor.
func (c *checkpointer) replayInto(s *session, base uint64) (stats wal.ReplayStats, closed bool, err error) {
	err = s.exec.submit(context.Background(), func(context.Context) error {
		var ferr error
		stats, ferr = wal.ReplayTail(c.walDir, s.id, base, func(e wal.Entry) error {
			return s.st.Apply(e.Rec)
		})
		closed = s.st.Closed
		return ferr
	})
	return stats, closed, err
}
