// Package wal implements the per-session write-ahead operation log that
// makes acknowledged mutations durable between checkpoints. A session's
// state is exactly reproducible as snapshot base + operation tail: the
// engine's construction is driven by a well-defined sequence of logical
// operations over wire handles, so journaling those operations (with the
// handle each one produced) before acknowledging them lets startup
// recovery rebuild the session — same id, same handle numbering — from
// the newest checkpoint plus the log tail.
//
// On-disk layout (the durability layout of a checkpoint directory):
//
//	<dir>/<id>.<seq>.snap    checkpoint snapshot: session state after
//	                         applying every record with sequence <= seq
//	<dir>/<id>.meta.json     engine configuration + the wal base seq
//	<dir>/wal/<id>.<seq>.wal log segments; a segment with base b holds
//	                         records b+1, b+2, ... in order
//
// Segment file format:
//
//	header (32 bytes in version 2; version-1 headers are 24 bytes and
//	still readable):
//	  magic   [8]byte  "BFBDDWAL"
//	  version uint16
//	  flags   uint16   (none defined; must be zero)
//	  base    uint64   sequence number the segment starts after
//	  epoch   uint64   replication epoch (v2 only; v1 reads as 0)
//	  crc     uint32   IEEE CRC-32 of the preceding header bytes
//
//	then a series of records, each framed as:
//	  length  uint32   payload bytes (bounded by MaxRecordLen)
//	  crc     uint32   IEEE CRC-32 of payload
//	  payload [length]byte
//
//	payload: uvarint(seq), byte(kind), kind-specific body (uvarints and
//	raw bytes; see the Record implementations).
//
// Sequence numbers are per-session, strictly increasing, and assigned at
// append time; a record is acknowledged to the client only after its
// frame is written (and, under the "always" sync policy, fsynced). A
// crash can therefore leave at most a torn suffix: the reader stops a
// segment at the first frame whose length, CRC, or sequence is wrong and
// treats everything after it as unwritten — torn tails are detected and
// discarded, never fatal. Every malformed input is reported as a typed
// error (ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated,
// ErrCorrupt); the reader never panics on hostile bytes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a WAL segment file.
const Magic = "BFBDDWAL"

// Version is the format version this package writes. Version 1 (no
// epoch field) remains readable.
const Version = 2

// HeaderSize is the byte length of the segment header this package
// writes (version 2). Version-1 headers are headerSizeV1 bytes.
const HeaderSize = 32

// headerSizeV1 is the byte length of a version-1 segment header.
const headerSizeV1 = 24

// MaxRecordLen bounds a single record payload; longer claims are
// rejected as torn/corrupt before any allocation of that size.
const MaxRecordLen = 1 << 26

// frameOverhead is the length+crc prefix of each record frame.
const frameOverhead = 8

// Typed decode errors. Every reader failure wraps exactly one of these.
var (
	// ErrBadMagic means the file does not start with the WAL magic.
	ErrBadMagic = errors.New("wal: bad magic")
	// ErrVersion means the segment's version or flags are unsupported.
	ErrVersion = errors.New("wal: unsupported version")
	// ErrChecksum means a header or record CRC does not match.
	ErrChecksum = errors.New("wal: checksum mismatch")
	// ErrTruncated means the stream ended inside a header.
	ErrTruncated = errors.New("wal: truncated stream")
	// ErrCorrupt means a record is structurally invalid (bad varint,
	// unknown kind, count mismatch, sequence regression, ...).
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed means the log was used after Close.
	ErrClosed = errors.New("wal: log is closed")
	// ErrBroken means a previous append or sync failed in a way that
	// could not be rolled back; the log refuses further appends so the
	// on-disk prefix stays an exact prefix of the acknowledged history.
	ErrBroken = errors.New("wal: log is broken (previous write failed)")
	// ErrNoChain means the segment chain cannot reach the requested
	// replay base: segments exist, but the earliest starts after it.
	ErrNoChain = errors.New("wal: segment chain does not reach base")
	// ErrFenced means the on-disk history carries a newer replication
	// epoch than the caller's: a promoted replica owns this session now,
	// and appending under the stale epoch would fork acknowledged
	// history.
	ErrFenced = errors.New("wal: stale epoch (history owned by a newer primary)")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Kind identifies one record type. Values are part of the on-disk
// format and append-only.
type Kind uint8

const (
	KindInvalid  Kind = 0
	KindCreate   Kind = 1  // session created: engine/order/budget config
	KindVar      Kind = 2  // variable (or negated variable) handle
	KindConst    Kind = 3  // constant handle
	KindApply    Kind = 4  // one binary apply
	KindBatch    Kind = 5  // an explicit batch of binary applies
	KindITE      Kind = 6  // if-then-else
	KindNot      Kind = 7  // negation
	KindQuantify Kind = 8  // exists/forall over a variable set
	KindRestrict Kind = 9  // cofactor
	KindCompose  Kind = 10 // substitution
	KindFree     Kind = 11 // handle release
	KindGC       Kind = 12 // explicit collection
	// 13 is reserved: a variable-order record no producer ever wrote.
	// It decodes as an unknown kind (ErrCorrupt).
	KindSnapshot Kind = 14 // wire snapshot exported (audit; no state)
	KindPublish  Kind = 15 // compiled artifact published (audit; no state)
	KindClose    Kind = 16 // session closed; recovery must not resurrect
	numKinds          = 17
)

var kindNames = [numKinds]string{
	"invalid", "create", "var", "const", "apply", "batch", "ite", "not",
	"quantify", "restrict", "compose", "free", "gc", "reserved",
	"snapshot", "publish", "close",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("wal.Kind(%d)", uint8(k))
}

// NumOps is the number of binary apply operation codes; the values match
// bfbdd.BatchOpKind (and, upward, the wire grammar) by construction and
// are validated on decode.
const NumOps = 8

// Record is one journaled operation. Implementations are pure data;
// encoding appends the kind-specific body (everything after the seq and
// kind prefix of the payload).
type Record interface {
	Kind() Kind
	encodeBody(b []byte) []byte
}

// Entry is one decoded record with its sequence number.
type Entry struct {
	Seq uint64
	Rec Record
}

// CreateRec journals session creation; Options carries the wire
// SessionOptions JSON so recovery rebuilds the session under the same
// engine configuration even before its first checkpoint exists.
type CreateRec struct{ Options []byte }

// VarRec journals Var/NVar; Handle is the wire handle the result got.
type VarRec struct {
	Index   int
	Negated bool
	Handle  uint64
}

// ConstRec journals Zero/One materialization.
type ConstRec struct {
	Value  bool
	Handle uint64
}

// ApplyRec journals one binary apply. Op is the bfbdd.BatchOpKind code.
type ApplyRec struct {
	Op     uint8
	F, G   uint64
	Handle uint64
}

// BatchRec journals an explicit client batch as one record, so the whole
// batch shares one frame and one group-commit fsync.
type BatchRec struct{ Ops []ApplyRec }

// ITERec journals if-then-else.
type ITERec struct {
	F, G, H uint64
	Handle  uint64
}

// NotRec journals negation.
type NotRec struct {
	F      uint64
	Handle uint64
}

// QuantifyRec journals exists/forall over Vars.
type QuantifyRec struct {
	Forall bool
	F      uint64
	Vars   []int
	Handle uint64
}

// RestrictRec journals a cofactor.
type RestrictRec struct {
	F      uint64
	Var    int
	Value  bool
	Handle uint64
}

// ComposeRec journals substitution of G for Var in F.
type ComposeRec struct {
	F, G   uint64
	Var    int
	Handle uint64
}

// FreeRec journals handle release.
type FreeRec struct{ Handles []uint64 }

// GCRec journals an explicit collection.
type GCRec struct{}

// SnapshotRec journals a wire snapshot export (audit only; replay skips).
type SnapshotRec struct{}

// PublishRec journals a compiled-artifact publish (audit only; artifact
// durability is owned by the artifact registry's persist-before-register
// protocol, so replay skips it).
type PublishRec struct {
	Name    string
	Handles []uint64
}

// CloseRec journals an acknowledged session delete; a replay that ends
// on one reports the session closed so recovery removes it instead of
// resurrecting it.
type CloseRec struct{}

func (CreateRec) Kind() Kind   { return KindCreate }
func (VarRec) Kind() Kind      { return KindVar }
func (ConstRec) Kind() Kind    { return KindConst }
func (ApplyRec) Kind() Kind    { return KindApply }
func (BatchRec) Kind() Kind    { return KindBatch }
func (ITERec) Kind() Kind      { return KindITE }
func (NotRec) Kind() Kind      { return KindNot }
func (QuantifyRec) Kind() Kind { return KindQuantify }
func (RestrictRec) Kind() Kind { return KindRestrict }
func (ComposeRec) Kind() Kind  { return KindCompose }
func (FreeRec) Kind() Kind     { return KindFree }
func (GCRec) Kind() Kind       { return KindGC }
func (SnapshotRec) Kind() Kind { return KindSnapshot }
func (PublishRec) Kind() Kind  { return KindPublish }
func (CloseRec) Kind() Kind    { return KindClose }

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (r CreateRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, uint64(len(r.Options)))
	return append(b, r.Options...)
}

func (r VarRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, uint64(r.Index))
	b = appendBool(b, r.Negated)
	return appendUvarint(b, r.Handle)
}

func (r ConstRec) encodeBody(b []byte) []byte {
	b = appendBool(b, r.Value)
	return appendUvarint(b, r.Handle)
}

func (r ApplyRec) encodeBody(b []byte) []byte {
	b = append(b, r.Op)
	b = appendUvarint(b, r.F)
	b = appendUvarint(b, r.G)
	return appendUvarint(b, r.Handle)
}

func (r BatchRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, uint64(len(r.Ops)))
	for _, op := range r.Ops {
		b = op.encodeBody(b)
	}
	return b
}

func (r ITERec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, r.F)
	b = appendUvarint(b, r.G)
	b = appendUvarint(b, r.H)
	return appendUvarint(b, r.Handle)
}

func (r NotRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, r.F)
	return appendUvarint(b, r.Handle)
}

func (r QuantifyRec) encodeBody(b []byte) []byte {
	b = appendBool(b, r.Forall)
	b = appendUvarint(b, r.F)
	b = appendUvarint(b, uint64(len(r.Vars)))
	for _, v := range r.Vars {
		b = appendUvarint(b, uint64(v))
	}
	return appendUvarint(b, r.Handle)
}

func (r RestrictRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, r.F)
	b = appendUvarint(b, uint64(r.Var))
	b = appendBool(b, r.Value)
	return appendUvarint(b, r.Handle)
}

func (r ComposeRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, r.F)
	b = appendUvarint(b, uint64(r.Var))
	b = appendUvarint(b, r.G)
	return appendUvarint(b, r.Handle)
}

func (r FreeRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, uint64(len(r.Handles)))
	for _, h := range r.Handles {
		b = appendUvarint(b, h)
	}
	return b
}

func (GCRec) encodeBody(b []byte) []byte { return b }

func (SnapshotRec) encodeBody(b []byte) []byte { return b }

func (r PublishRec) encodeBody(b []byte) []byte {
	b = appendUvarint(b, uint64(len(r.Name)))
	b = append(b, r.Name...)
	b = appendUvarint(b, uint64(len(r.Handles)))
	for _, h := range r.Handles {
		b = appendUvarint(b, h)
	}
	return b
}

func (CloseRec) encodeBody(b []byte) []byte { return b }

// payloadReader walks a record payload with bounds checking; every
// overrun produces ErrCorrupt, never a slice panic.
type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, corrupt("bad varint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) count(max uint64) (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	// A count can never exceed the remaining payload bytes (every element
	// costs at least one byte), so hostile counts are rejected before any
	// allocation of that size.
	if rem := uint64(len(p.b) - p.off); v > rem || v > max {
		return 0, corrupt("count %d exceeds payload", v)
	}
	return int(v), nil
}

func (p *payloadReader) intVal() (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, corrupt("value %d overflows int", v)
	}
	return int(v), nil
}

func (p *payloadReader) byteVal() (byte, error) {
	if p.off >= len(p.b) {
		return 0, corrupt("payload underrun at offset %d", p.off)
	}
	v := p.b[p.off]
	p.off++
	return v, nil
}

func (p *payloadReader) boolVal() (bool, error) {
	v, err := p.byteVal()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, corrupt("bad bool byte %#x", v)
}

func (p *payloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.b) {
		return nil, corrupt("payload underrun reading %d bytes", n)
	}
	v := p.b[p.off : p.off+n]
	p.off = p.off + n
	return v, nil
}

func (p *payloadReader) done() error {
	if p.off != len(p.b) {
		return corrupt("%d trailing payload bytes", len(p.b)-p.off)
	}
	return nil
}

func (p *payloadReader) opByte() (uint8, error) {
	op, err := p.byteVal()
	if err != nil {
		return 0, err
	}
	if op >= NumOps {
		return 0, corrupt("apply op %d out of range", op)
	}
	return op, nil
}

// EncodeRecord renders one record's full payload (seq, kind, body).
func EncodeRecord(seq uint64, rec Record) []byte {
	b := appendUvarint(nil, seq)
	b = append(b, byte(rec.Kind()))
	return rec.encodeBody(b)
}

// DecodeRecord parses one record payload. Hostile bytes produce a typed
// error, never a panic.
func DecodeRecord(payload []byte) (Entry, error) {
	p := &payloadReader{b: payload}
	seq, err := p.uvarint()
	if err != nil {
		return Entry{}, err
	}
	kb, err := p.byteVal()
	if err != nil {
		return Entry{}, err
	}
	rec, err := decodeBody(Kind(kb), p)
	if err != nil {
		return Entry{}, err
	}
	if err := p.done(); err != nil {
		return Entry{}, err
	}
	return Entry{Seq: seq, Rec: rec}, nil
}

func decodeBody(kind Kind, p *payloadReader) (Record, error) {
	switch kind {
	case KindCreate:
		n, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		opts, err := p.bytes(n)
		if err != nil {
			return nil, err
		}
		// Copy: the payload buffer is reused by the segment scanner.
		return CreateRec{Options: append([]byte(nil), opts...)}, nil
	case KindVar:
		var r VarRec
		var err error
		if r.Index, err = p.intVal(); err != nil {
			return nil, err
		}
		if r.Negated, err = p.boolVal(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindConst:
		var r ConstRec
		var err error
		if r.Value, err = p.boolVal(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindApply:
		return decodeApply(p)
	case KindBatch:
		n, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		r := BatchRec{Ops: make([]ApplyRec, n)}
		for i := range r.Ops {
			op, err := decodeApply(p)
			if err != nil {
				return nil, err
			}
			r.Ops[i] = op
		}
		return r, nil
	case KindITE:
		var r ITERec
		var err error
		if r.F, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.G, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.H, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindNot:
		var r NotRec
		var err error
		if r.F, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindQuantify:
		var r QuantifyRec
		var err error
		if r.Forall, err = p.boolVal(); err != nil {
			return nil, err
		}
		if r.F, err = p.uvarint(); err != nil {
			return nil, err
		}
		n, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		r.Vars = make([]int, n)
		for i := range r.Vars {
			if r.Vars[i], err = p.intVal(); err != nil {
				return nil, err
			}
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindRestrict:
		var r RestrictRec
		var err error
		if r.F, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.Var, err = p.intVal(); err != nil {
			return nil, err
		}
		if r.Value, err = p.boolVal(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindCompose:
		var r ComposeRec
		var err error
		if r.F, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.Var, err = p.intVal(); err != nil {
			return nil, err
		}
		if r.G, err = p.uvarint(); err != nil {
			return nil, err
		}
		if r.Handle, err = p.uvarint(); err != nil {
			return nil, err
		}
		return r, nil
	case KindFree:
		n, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		r := FreeRec{Handles: make([]uint64, n)}
		for i := range r.Handles {
			if r.Handles[i], err = p.uvarint(); err != nil {
				return nil, err
			}
		}
		return r, nil
	case KindGC:
		return GCRec{}, nil
	case KindSnapshot:
		return SnapshotRec{}, nil
	case KindPublish:
		n, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		name, err := p.bytes(n)
		if err != nil {
			return nil, err
		}
		hn, err := p.count(MaxRecordLen)
		if err != nil {
			return nil, err
		}
		r := PublishRec{Name: string(name), Handles: make([]uint64, hn)}
		for i := range r.Handles {
			if r.Handles[i], err = p.uvarint(); err != nil {
				return nil, err
			}
		}
		return r, nil
	case KindClose:
		return CloseRec{}, nil
	}
	return nil, corrupt("unknown record kind %d", uint8(kind))
}

func decodeApply(p *payloadReader) (ApplyRec, error) {
	var r ApplyRec
	var err error
	if r.Op, err = p.opByte(); err != nil {
		return r, err
	}
	if r.F, err = p.uvarint(); err != nil {
		return r, err
	}
	if r.G, err = p.uvarint(); err != nil {
		return r, err
	}
	if r.Handle, err = p.uvarint(); err != nil {
		return r, err
	}
	return r, nil
}

// encodeHeader renders a version-2 segment header for base and epoch.
func encodeHeader(base, epoch uint64) []byte {
	b := make([]byte, HeaderSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint16(b[8:], Version)
	binary.LittleEndian.PutUint16(b[10:], 0) // flags
	binary.LittleEndian.PutUint64(b[12:], base)
	binary.LittleEndian.PutUint64(b[20:], epoch)
	binary.LittleEndian.PutUint32(b[28:], crc32.ChecksumIEEE(b[:28]))
	return b
}

// ParseHeader decodes and validates a segment header (version 1 or 2)
// and returns its base, epoch (0 for v1), and byte length n.
func ParseHeader(b []byte) (base, epoch uint64, n int, err error) {
	if len(b) < headerSizeV1 {
		return 0, 0, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if string(b[:8]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	base = binary.LittleEndian.Uint64(b[12:])
	switch v := binary.LittleEndian.Uint16(b[8:]); v {
	case 1:
		if got, want := binary.LittleEndian.Uint32(b[20:24]), crc32.ChecksumIEEE(b[:20]); got != want {
			return 0, 0, 0, fmt.Errorf("%w: header", ErrChecksum)
		}
		n = headerSizeV1
	case Version:
		if len(b) < HeaderSize {
			return 0, 0, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
		}
		if got, want := binary.LittleEndian.Uint32(b[28:32]), crc32.ChecksumIEEE(b[:28]); got != want {
			return 0, 0, 0, fmt.Errorf("%w: header", ErrChecksum)
		}
		epoch = binary.LittleEndian.Uint64(b[20:28])
		n = HeaderSize
	default:
		return 0, 0, 0, fmt.Errorf("%w: version %d", ErrVersion, v)
	}
	if f := binary.LittleEndian.Uint16(b[10:]); f != 0 {
		return 0, 0, 0, fmt.Errorf("%w: unknown flags %#x", ErrVersion, f)
	}
	return base, epoch, n, nil
}
