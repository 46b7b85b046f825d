package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"bfbdd"
	"bfbdd/internal/replication"
	"bfbdd/internal/retry"
	"bfbdd/internal/wal"
)

// The follower side of hot-standby replication: a reconcile loop that
// mirrors the primary's session set and published functions, plus one
// puller goroutine per session that bootstraps from a snapshot and then
// applies the streamed WAL tail into the live read-only session. The
// primary-side endpoints it consumes live in repl.go.

// replPrimarySilence is how long the reconcile loop may fail to reach
// the primary before /readyz reports the follower unready.
const replPrimarySilence = 15 * time.Second

// Follower reconnect backoff (shared shape with the checkpointer's
// retry policy, via internal/retry).
const (
	followRetryBase = 100 * time.Millisecond
	followRetryCap  = 5 * time.Second
	followInterval  = time.Second // reconcile cadence when healthy
	followPollWait  = 10 * time.Second
)

// Typed puller outcomes that change the loop's shape rather than just
// triggering a backoff.
var (
	// errReplDiverged means the local copy no longer chains onto the
	// primary's stream (sequence gap, failed apply, failed append):
	// the only safe continuation is a fresh snapshot bootstrap.
	errReplDiverged = errors.New("replica diverged from primary stream")
	// errReplClosed means a replicated close record was applied: the
	// primary acknowledged the session's deletion, so the replica is
	// torn down too.
	errReplClosed = errors.New("session closed by replicated record")
)

type follower struct {
	s      *Server
	client *replication.Client

	ctx    context.Context // cancels in-flight polls on shutdown/promote
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}

	stopOnce sync.Once

	mu      sync.Mutex
	pullers map[string]*puller

	// promoted flips exactly once, after replication is sealed and the
	// bumped epoch is durable; isFollower (and with it the write fence)
	// reads it on every mutation.
	promoted  atomic.Bool
	promoteMu sync.Mutex

	// bootstrapped latches true once every known session has a ready
	// puller; /readyz gates on it.
	bootstrapped atomic.Bool

	// lastContact is the UnixNano of the last successful status fetch.
	lastContact atomic.Int64
}

func newFollower(s *Server) (*follower, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, err
	}
	client, err := replication.NewClient(s.cfg.FollowURL, "f-"+hex.EncodeToString(b[:]))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &follower{
		s:       s,
		client:  client,
		ctx:     ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		pullers: make(map[string]*puller),
	}, nil
}

// shutdown seals the following machinery: cancels in-flight polls,
// stops the reconcile loop, and waits for it (and, via its deferred
// stopPullers, every puller) to exit. Idempotent; shared by graceful
// shutdown and promotion.
func (f *follower) shutdown() {
	f.stopOnce.Do(func() {
		f.cancel()
		close(f.stop)
	})
	<-f.done
}

// run is the reconcile loop: poll the primary's status, mirror its
// session set and function registry, back off (with jitter, via the
// shared retry policy's shape) while it is unreachable.
func (f *follower) run() {
	defer close(f.done)
	defer f.stopPullers()
	delay := followRetryBase
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(f.ctx, 10*time.Second)
		st, err := f.client.Status(ctx)
		cancel()
		if err != nil {
			f.s.metrics.replReconnects.Add(1)
			select {
			case <-f.stop:
				return
			case <-time.After(retry.Jitter(delay)):
			}
			if delay *= 2; delay > followRetryCap {
				delay = followRetryCap
			}
			continue
		}
		delay = followRetryBase
		f.reconcile(st)
		select {
		case <-f.stop:
			return
		case <-time.After(followInterval):
		}
	}
}

// reconcile diffs the primary's status against local state: adopt a
// newer epoch, mirror the function registry, start pullers for new
// sessions, tear down replicas of sessions the primary no longer has.
func (f *follower) reconcile(st *replication.Status) {
	f.lastContact.Store(time.Now().UnixNano())
	f.s.adoptEpoch(st.Epoch)
	f.syncFuncs(st.Funcs)

	remote := make(map[string]uint64, len(st.Sessions))
	for _, ss := range st.Sessions {
		remote[ss.Session] = ss.LastSeq
	}
	var gone []*puller
	f.mu.Lock()
	for sid, seq := range remote {
		if p := f.pullers[sid]; p != nil {
			if seq > p.remoteSeq.Load() {
				p.remoteSeq.Store(seq)
			}
			p.noteLag()
			continue
		}
		p := newPuller(f, sid, seq)
		f.pullers[sid] = p
		go p.run()
	}
	for sid, p := range f.pullers {
		if _, ok := remote[sid]; !ok {
			gone = append(gone, p)
			delete(f.pullers, sid)
		}
	}
	ready := true
	for _, p := range f.pullers {
		if !p.ready.Load() {
			ready = false
			break
		}
	}
	f.mu.Unlock()
	for _, p := range gone {
		p.shutdown()
		_ = f.s.reg.closeSession(p.sid)
		f.s.hub.Forget(p.sid)
	}
	if ready {
		f.bootstrapped.Store(true)
	}
}

// syncFuncs mirrors the primary's published-function registry:
// downloads artifacts it lacks, removes artifacts the primary dropped.
func (f *follower) syncFuncs(ids []string) {
	want := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		want[id] = struct{}{}
	}
	for _, a := range f.s.funcs.list() {
		if _, ok := want[a.id]; !ok {
			_ = f.s.funcs.remove(a.id)
		}
	}
	for _, id := range ids {
		if _, err := f.s.funcs.get(id); err == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(f.ctx, time.Minute)
		data, err := f.client.DownloadFunc(ctx, id)
		cancel()
		if err != nil {
			log.Printf("server: follower: downloading function %s: %v", id, err)
			continue
		}
		fn, err := bfbdd.LoadCompiled(bytes.NewReader(data))
		if err != nil {
			log.Printf("server: follower: bad artifact %s from primary: %v", id, err)
			continue
		}
		if _, err := f.s.funcs.publish(id, "", fn); err != nil {
			log.Printf("server: follower: publishing %s: %v", id, err)
			continue
		}
		f.s.metrics.replBytesReceived.Add(uint64(len(data)))
	}
}

func (f *follower) stopPullers() {
	f.mu.Lock()
	ps := make([]*puller, 0, len(f.pullers))
	for _, p := range f.pullers {
		ps = append(ps, p)
	}
	f.pullers = make(map[string]*puller)
	f.mu.Unlock()
	for _, p := range ps {
		p.shutdown()
	}
}

// lag reports the follower's replication lag: the total record delta
// across sessions, and the wall time the most-behind session has been
// behind (zero when fully caught up).
func (f *follower) lag() (records uint64, wall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	for _, p := range f.pullers {
		local, remote := p.localSeq.Load(), p.remoteSeq.Load()
		if remote > local {
			records += remote - local
		}
		if since := p.behindSince.Load(); since != 0 {
			if d := now.Sub(time.Unix(0, since)); d > wall {
				wall = d
			}
		}
	}
	return records, wall
}

// sincePrimaryContact is how long ago the primary last answered a
// status poll; effectively infinite before the first success.
func (f *follower) sincePrimaryContact() time.Duration {
	t := f.lastContact.Load()
	if t == 0 {
		return time.Duration(1<<63 - 1)
	}
	return time.Since(time.Unix(0, t))
}

// promote seals replication and flips the follower writable with a
// bumped, durably persisted fencing epoch. The ordering is what makes
// the fence airtight: no replicated record can land after the epoch
// bump (pullers are already down), and the write fence stays closed
// until the new epoch is on disk, stamped into every live WAL, and
// re-checkpointed — so nothing mutates in the window where a crash
// could roll the epoch back.
func (f *follower) promote() (uint64, bool, error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	s := f.s
	if f.promoted.Load() {
		return s.epoch.Load(), true, nil
	}
	f.shutdown()
	epoch := s.epoch.Load() + 1
	if err := replication.StoreEpoch(s.cfg.CheckpointDir, epoch); err != nil {
		return s.epoch.Load(), false, fmt.Errorf("persisting epoch %d: %w", epoch, err)
	}
	s.epoch.Store(epoch)
	// Stamp the new epoch into every live log: the next segment each
	// session writes carries it, so a restarted old primary (whose
	// on-disk history is at the old epoch) is refused on open if it
	// ever sees this directory, and `bfbdd wal verify` can prove which
	// timeline a segment belongs to.
	for _, sess := range s.reg.list() {
		if sess.wal == nil {
			continue
		}
		if err := sess.wal.SetEpoch(epoch); err != nil {
			log.Printf("server: promote: stamping epoch %d on session %s: %v", epoch, sess.id, err)
		}
	}
	// Re-checkpoint so the meta sidecars carry the new epoch too.
	s.ckpt.checkpointAll()
	f.promoted.Store(true)
	log.Printf("server: promoted at epoch %d (was following %s)", epoch, f.client.PrimaryURL())
	return epoch, false, nil
}

// puller replicates one session: bootstrap (or resume) and then a
// long-poll apply loop.
type puller struct {
	f   *follower
	sid string

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}

	// ready means the replica session exists locally and is serving
	// reads (it may still be catching up on the tail).
	ready atomic.Bool
	// localSeq is the last sequence applied locally; remoteSeq is the
	// primary's chain head as last observed. Their delta is the lag.
	localSeq    atomic.Uint64
	remoteSeq   atomic.Uint64
	behindSince atomic.Int64 // UnixNano when the replica fell behind; 0 = caught up
}

func newPuller(f *follower, sid string, remote uint64) *puller {
	p := &puller{
		f:    f,
		sid:  sid,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(f.ctx)
	p.remoteSeq.Store(remote)
	return p
}

func (p *puller) shutdown() {
	p.cancel()
	close(p.stop)
	<-p.done
}

func (p *puller) run() {
	defer close(p.done)
	delay := followRetryBase
	var sess *session
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		var err error
		if sess == nil {
			if sess, err = p.attach(); err == nil {
				p.ready.Store(true)
			}
		}
		if err == nil {
			err = p.poll(sess)
		}
		switch {
		case err == nil:
			delay = followRetryBase
		case errors.Is(err, replication.ErrSnapshotRequired), errors.Is(err, errReplDiverged):
			// The local copy cannot chain onto the primary's stream any
			// more; only a fresh bootstrap can. No backoff — the very
			// next attach does the snapshot transfer (its own failures
			// take the default branch).
			sess = nil
			p.ready.Store(false)
		case errors.Is(err, replication.ErrSessionGone), errors.Is(err, errReplClosed):
			// Deletion acknowledged by the primary; mirror it and stop.
			_ = p.f.s.reg.closeSession(p.sid)
			p.f.s.hub.Forget(p.sid)
			return
		case errors.Is(err, context.Canceled):
			// Shutdown or promotion cancelled the in-flight request; the
			// loop top exits via p.stop.
		default:
			p.f.s.metrics.replReconnects.Add(1)
			select {
			case <-p.stop:
				return
			case <-time.After(retry.Jitter(delay)):
			}
			if delay *= 2; delay > followRetryCap {
				delay = followRetryCap
			}
		}
	}
}

// attach produces the live replica session: resuming the locally
// recovered copy when it is a strict prefix of the primary's chain
// (restart-friendly — no snapshot re-transfer), bootstrapping from a
// snapshot otherwise. A local copy ahead of the primary's head (an old
// primary restarted as a follower, with unacknowledged extra records)
// does not chain and is re-bootstrapped.
func (p *puller) attach() (*session, error) {
	if sess, err := p.f.s.reg.get(p.sid); err == nil &&
		sess.wal != nil && sess.wal.Seq() <= p.remoteSeq.Load() {
		p.localSeq.Store(sess.wal.Seq())
		return sess, nil
	}
	return p.bootstrap()
}

// countingReader counts the bytes a snapshot bootstrap pulls.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

// bootstrap transfers a snapshot from the primary and builds the
// replica session on top of it, with a WAL opened at the snapshot's
// base sequence so the streamed tail chains exactly. The bootstrap is
// checkpointed immediately so a follower restart resumes from disk
// instead of re-transferring.
func (p *puller) bootstrap() (*session, error) {
	s := p.f.s
	s.metrics.replBootstraps.Add(1)
	// Drop whatever stale local copy exists: a live session (close it;
	// onClose purges its files) or just leftover files.
	if _, err := s.reg.get(p.sid); err == nil {
		_ = s.reg.closeSession(p.sid)
	} else {
		s.ckpt.remove(p.sid)
	}
	ctx, cancel := context.WithTimeout(p.ctx, 10*time.Minute)
	defer cancel()
	rc, info, err := p.f.client.Snapshot(ctx, p.sid)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	s.adoptEpoch(info.Epoch)
	var opts SessionOptions
	if len(info.Options) > 0 {
		if err := json.Unmarshal(info.Options, &opts); err != nil {
			return nil, fmt.Errorf("bad session options from primary: %v", err)
		}
	}
	cr := &countingReader{r: rc}
	sess, err := s.reg.restore(p.sid, opts, cr, func(sess *session) error {
		return s.openWAL(sess, info.BaseSeq)
	})
	if err != nil {
		return nil, err
	}
	s.metrics.replBytesReceived.Add(uint64(cr.n))
	if cerr := s.ckpt.checkpointWithRetry(sess); cerr != nil {
		// Not fatal: the replica is correct in memory; only the
		// restart-resume shortcut is lost until a later checkpoint lands.
		log.Printf("server: follower: checkpoint after bootstrap of %s: %v", p.sid, cerr)
	}
	p.localSeq.Store(info.BaseSeq)
	p.noteLag()
	return sess, nil
}

// poll long-polls the primary for the next batch and applies it.
func (p *puller) poll(sess *session) error {
	// The overall deadline comfortably exceeds the long-poll window, so
	// it only fires on a dead-but-open connection.
	ctx, cancel := context.WithTimeout(p.ctx, followPollWait+replWaitMax)
	defer cancel()
	batch, err := p.f.client.PollWAL(ctx, p.sid, p.localSeq.Load(), followPollWait)
	if err != nil {
		return err
	}
	if batch == nil {
		p.noteLag()
		return nil
	}
	return p.apply(sess, batch)
}

// apply appends and replays one shipped batch on the session's
// executor. Frames at or below the local head are duplicate deliveries
// after a reconnect and skip idempotently; a gap or failed apply is
// divergence; a torn final frame (connection severed mid-batch) is
// fine — the parsed prefix is applied and the next poll refetches the
// tail. Records land in the local WAL in one group append (one fsync
// per batch under -wal-sync=always, mirroring the primary's group
// commit) before they touch the manager, so the replica's durable
// state never trails its served state.
func (p *puller) apply(sess *session, batch *replication.WALBatch) error {
	s := p.f.s
	if cur := s.epoch.Load(); batch.Epoch < cur {
		s.metrics.replStaleEpochRefusals.Add(1)
		return fmt.Errorf("%w: batch at stale epoch %d, local epoch %d", errReplDiverged, batch.Epoch, cur)
	}
	s.adoptEpoch(batch.Epoch)

	var applied uint64
	err := sess.exec.submit(context.Background(), func(context.Context) error {
		local := p.localSeq.Load()
		var recs []wal.Record
		_, serr := wal.ScanFrames(batch.Frames, func(e wal.Entry) error {
			switch {
			case e.Seq <= local:
				return nil
			case e.Seq != local+uint64(len(recs))+1:
				return fmt.Errorf("%w: seq %d after %d", errReplDiverged, e.Seq, local+uint64(len(recs)))
			}
			recs = append(recs, e.Rec)
			return nil
		})
		torn := false
		if serr != nil && !errors.Is(serr, errReplDiverged) {
			// A torn or corrupt tail frame: the clean prefix in recs is
			// exactly what the primary managed to flush; apply it and let
			// the next poll refetch the rest.
			serr, torn = nil, true
		}
		if serr != nil {
			return serr
		}
		if len(recs) == 0 {
			if torn {
				// No parseable prefix at all; backing off before the
				// refetch keeps a persistently bad batch from spinning.
				return fmt.Errorf("torn batch carried no complete frame")
			}
			return nil
		}
		if aerr := sess.wal.Append(recs...); aerr != nil {
			return fmt.Errorf("%w: local append: %v", errReplDiverged, aerr)
		}
		want := local + uint64(len(recs))
		if got := sess.wal.Seq(); got != want {
			return fmt.Errorf("%w: local log at %d after appending through %d", errReplDiverged, got, want)
		}
		for _, rec := range recs {
			if aerr := sess.st.Apply(rec); aerr != nil {
				return fmt.Errorf("%w: applying record: %v", errReplDiverged, aerr)
			}
		}
		applied = uint64(len(recs))
		p.localSeq.Store(want)
		if sess.st.Closed {
			return errReplClosed
		}
		return nil
	})
	if batch.LastSeq > p.remoteSeq.Load() {
		p.remoteSeq.Store(batch.LastSeq)
	}
	s.metrics.replRecordsApplied.Add(applied)
	s.metrics.replBytesReceived.Add(uint64(len(batch.Frames)))
	p.noteLag()
	return err
}

// noteLag updates the wall-clock lag latch from the sequence delta.
func (p *puller) noteLag() {
	if p.localSeq.Load() >= p.remoteSeq.Load() {
		p.behindSince.Store(0)
	} else if p.behindSince.Load() == 0 {
		p.behindSince.Store(time.Now().UnixNano())
	}
}
