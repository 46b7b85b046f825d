// Package replication implements hot-standby support for bfbdd-serve:
// the primary-side hub that tracks committed sequences and connected
// followers (semi-synchronous shipping under -wal-sync=always), the
// long-poll wire protocol shared by the primary's handlers and the
// follower's client, and the persisted replication epoch that fences a
// deposed primary.
//
// The protocol is deliberately thin: three idempotent GETs. A follower
// discovers sessions and the current epoch from /v1/repl/status,
// bootstraps each session from a snapshot stream whose headers carry
// the wal base sequence, then long-polls /v1/repl/wal/{sid}?from=N for
// raw WAL frames. Everything the follower applies is also journaled to
// its own WAL first, so a follower restart recovers locally and
// resumes from its own chain head — the primary never tracks follower
// durability, only delivery.
package replication

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"

	"bfbdd/internal/durable"
)

// epochFile is the sidecar in the checkpoint directory that persists
// the replication epoch across restarts.
const epochFile = "epoch.json"

type epochState struct {
	Epoch uint64 `json:"epoch"`
}

// LoadEpoch reads the persisted replication epoch from dir. A missing
// file is epoch 1 (the pre-replication default), not an error.
func LoadEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 1, nil
		}
		return 0, err
	}
	var st epochState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	if st.Epoch == 0 {
		st.Epoch = 1
	}
	return st.Epoch, nil
}

// StoreEpoch durably persists epoch in dir through internal/durable: a
// crash leaves either the old epoch or the new one, never a torn file.
func StoreEpoch(dir string, epoch uint64) error {
	data, err := json.Marshal(epochState{Epoch: epoch})
	if err != nil {
		return err
	}
	return durable.WriteFile(dir, epochFile, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
