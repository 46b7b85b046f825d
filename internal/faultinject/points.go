// Package faultinject provides deterministic, seedable fault points for
// robustness testing. A fault point is a named site in the engine or the
// server where a test can arm an injected failure (a typed error) or a
// stall (a delay). In normal builds the package compiles to no-ops —
// Enabled is a constant false, Check and Stall are empty leaf functions,
// and the call sites are guarded by `if faultinject.Enabled`, so the
// entire mechanism is removed by dead-code elimination. Building with
// `-tags=faultinject` swaps in the live implementation (see enabled.go).
//
// The fault-point catalog, with the layer each point lives in:
//
//	ArenaAlloc        node:   node-arena allocation (unique.FindOrAdd path)
//	OpAlloc           core:   operator-node arena allocation (preprocess)
//	UniqueAdd         unique: unique-table insert (FindOrAdd entry)
//	KernelInvariant   core:   MkNode invariant wall (panics *InternalError)
//	WorkerStall       core:   per-poll worker delay (evaluation loop)
//	GCStall           core:   delay inside the mark phase of a collection
//	CheckpointCreate  server: temp-file creation for a checkpoint
//	CheckpointWrite   server: buffered snapshot write/flush
//	CheckpointSync    server: fsync of the staged snapshot
//	CheckpointRename  server: rename-into-place commit step
//	CheckpointDirSync server: directory fsync after both renames, before
//	                          superseded snapshots and WAL segments go
//	WALAppend         wal:    record append (before the frame write)
//	WALSync           wal:    fsync of the active WAL segment
//	WALRotate         wal:    opening a fresh segment at a checkpoint
//	WALTruncate       wal:    deleting checkpoint-covered segments
//	ReplShip          server: replication WAL shipping (fires truncate the
//	                          batch body mid-frame, simulating a connection
//	                          severed while frames were in flight)
//	SpillWrite        spill:  level spill-file write (tier-down path); a
//	                          fired point must leave the Manager fully
//	                          resident and consistent
//
// Error-injecting points (everything except the stalls) return a typed
// *Error wrapping ErrInjected; engine call sites panic it into the
// existing buildAborted unwinding machinery, server call sites return it
// as a plain I/O error. Stall points only ever delay — they never fail —
// because they sit inside phases (GC barriers) where an injected panic
// would deadlock real goroutines rather than exercise error paths.
package faultinject

import (
	"errors"
	"fmt"
)

// Point identifies one fault-injection site.
type Point uint8

const (
	ArenaAlloc Point = iota
	OpAlloc
	UniqueAdd
	KernelInvariant
	WorkerStall
	GCStall
	CheckpointCreate
	CheckpointWrite
	CheckpointSync
	CheckpointRename
	CheckpointDirSync
	WALAppend
	WALSync
	WALRotate
	WALTruncate
	ReplShip
	SpillWrite
	NumPoints
)

var pointNames = [NumPoints]string{
	"arena-alloc",
	"op-alloc",
	"unique-add",
	"kernel-invariant",
	"worker-stall",
	"gc-stall",
	"checkpoint-create",
	"checkpoint-write",
	"checkpoint-sync",
	"checkpoint-rename",
	"checkpoint-dir-sync",
	"wal-append",
	"wal-sync",
	"wal-rotate",
	"wal-truncate",
	"repl-ship",
	"spill-write",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("faultinject.Point(%d)", uint8(p))
}

// ErrInjected is the sentinel every injected fault wraps; classify with
// errors.Is(err, faultinject.ErrInjected). Injected faults are synthetic
// resource-exhaustion events: recoverable, and never grounds for marking
// a session poisoned.
var ErrInjected = errors.New("injected fault")

// Error is the typed error produced when an armed fault point fires.
type Error struct {
	Point Point
	Call  uint64 // 1-based call count at which the point fired
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s failed (call %d): %v", e.Point, e.Call, ErrInjected)
}

func (e *Error) Unwrap() error { return ErrInjected }
