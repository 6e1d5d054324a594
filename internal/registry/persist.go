package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/models"
	"repro/internal/store"
)

// Persistence: a registry built with Open journals every mutation to
// <dir>/journal.log — admissions as full model documents, activations
// (and rollbacks, which are state-identical) as small control records —
// through the store package's checksummed framing, so a kill -9 at any
// instant loses at most the one in-flight append. When the journal
// outgrows a size bound the whole state compacts into <dir>/snapshot.json
// (written atomically) and the journal resets; recovery loads the
// snapshot, then replays the journal on top. Replay is idempotent: a
// crash between snapshot write and journal reset re-admits versions the
// snapshot already holds, and those duplicates are skipped.

// journalName and snapshotName are the fixed file names inside a registry
// state directory.
const (
	journalName  = "journal.log"
	snapshotName = "snapshot.json"
)

// record is one journal entry. Admissions carry the full model document;
// activations carry just the version.
type record struct {
	Op        string          `json:"op"` // "admit" | "activate"
	Version   string          `json:"version"`
	Meta      Meta            `json:"meta,omitempty"`
	CreatedAt time.Time       `json:"created_at,omitempty"`
	Seq       int             `json:"seq,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
}

// snapshotFile is the compacted full state.
type snapshotFile struct {
	Admits   []record `json:"admits"` // admission (seq) order
	Active   string   `json:"active,omitempty"`
	Previous string   `json:"previous,omitempty"`
}

// persister is the journal half of a persistent registry.
type persister struct {
	j            *store.Journal
	dir          string
	compactBytes int64
	compactions  int
	// records counts the journal's current record frames — what a
	// replication follower's applied count is measured against.
	records int
}

// OpenOptions tunes Open. Zero values take defaults.
type OpenOptions struct {
	// CompactBytes is the journal size that triggers compaction into a
	// snapshot (default 4 MiB). Compaction runs inline on the mutation
	// that crossed the bound — registry mutations are rare and snapshots
	// small, so the serving path never sees it.
	CompactBytes int64
}

// Recovery reports what Open found: the journal-level repairs plus
// registry-level replay accounting.
type Recovery struct {
	// Journal is the byte-level repair report (torn tail, quarantine).
	Journal store.Recovery
	// FromSnapshot is true when a compacted snapshot seeded the state.
	FromSnapshot bool
	// Versions and Active describe the recovered registry.
	Versions int
	Active   string
	// SkippedRecords counts checksum-valid records that were semantically
	// unusable — duplicate admissions (the idempotent-replay case), models
	// failing validation, activations of unknown versions. They are
	// ignored rather than allowed to poison the store.
	SkippedRecords int
}

// Open builds a registry backed by the state directory, creating it if
// needed. Existing state is recovered: snapshot first, then the journal
// replayed on top, with torn tails truncated and corrupt segments
// quarantined (see the Recovery report). The returned registry behaves
// exactly like an in-memory one, with every mutation journaled; callers
// own Close.
func Open(dir string, opts OpenOptions) (*Registry, *Recovery, error) {
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("registry: creating state dir: %w", err)
	}
	r := New()
	rec := &Recovery{}

	snapPath := filepath.Join(dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			// snapshot.json is written atomically, so a parse failure is
			// not a crash artifact — refuse to guess at the state.
			return nil, nil, fmt.Errorf("registry: corrupt snapshot %s: %w", snapPath, err)
		}
		for i := range snap.Admits {
			r.applyAdmit(&snap.Admits[i], rec)
		}
		if snap.Active != "" {
			if e, ok := r.versions[snap.Active]; ok {
				r.active.Store(e)
			}
		}
		r.previous = snap.Previous
		rec.FromSnapshot = true
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("registry: reading snapshot: %w", err)
	}

	j, jrec, err := store.OpenJournal(filepath.Join(dir, journalName), func(b []byte) error {
		r.applyRecord(b, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Journal = jrec
	r.persist = &persister{j: j, dir: dir, compactBytes: opts.CompactBytes, records: jrec.Records}
	rec.Versions = len(r.versions)
	rec.Active = r.ActiveVersion()
	return r, rec, nil
}

// Close releases the journal. In-memory registries close as a no-op.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.persist == nil {
		return nil
	}
	return r.persist.j.Close()
}

// Persistent reports whether mutations are journaled.
func (r *Registry) Persistent() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persist != nil
}

// applyRecord replays one journal record during Open. Semantic problems
// skip the record (counted) rather than abort: a checksum-valid record
// that cannot apply — a duplicate admit after an interrupted compaction,
// an activation of a version that never admitted — must not take the
// whole store down.
func (r *Registry) applyRecord(b []byte, rec *Recovery) {
	var rc record
	if err := json.Unmarshal(b, &rc); err != nil {
		rec.SkippedRecords++
		return
	}
	switch rc.Op {
	case "admit":
		r.applyAdmit(&rc, rec)
	case "activate":
		if _, ok := r.versions[rc.Version]; !ok {
			rec.SkippedRecords++
			return
		}
		if _, err := r.activateLocked(rc.Version); err != nil {
			rec.SkippedRecords++
		}
	default:
		rec.SkippedRecords++
	}
}

// applyAdmit reconstructs one admitted version. The model document is
// re-validated: the checksum proves the bytes are what was written, the
// validation proves what was written is a servable model.
func (r *Registry) applyAdmit(rc *record, rec *Recovery) {
	if rc.Version == "" || len(rc.Model) == 0 {
		rec.SkippedRecords++
		return
	}
	if _, dup := r.versions[rc.Version]; dup {
		rec.SkippedRecords++ // idempotent replay after interrupted compaction
		return
	}
	var cm models.ClusterModel
	if err := json.Unmarshal(rc.Model, &cm); err != nil {
		rec.SkippedRecords++
		return
	}
	if err := cm.Validate(); err != nil {
		rec.SkippedRecords++
		return
	}
	r.seq++
	e := &Entry{Version: rc.Version, Meta: rc.Meta, Model: &cm, CreatedAt: rc.CreatedAt, seq: r.seq}
	r.versions[rc.Version] = e
	versionsGauge.Set(float64(len(r.versions)))
	if r.active.Load() == nil {
		r.active.Store(e)
	}
}

// journalAdmitLocked appends an admission record; caller holds r.mu.
// In-memory registries no-op.
func (r *Registry) journalAdmitLocked(e *Entry) error {
	if r.persist == nil {
		return nil
	}
	model, err := json.Marshal(e.Model)
	if err != nil {
		return fmt.Errorf("registry: marshaling %s for journal: %w", e.Version, err)
	}
	return r.appendLocked(record{
		Op: "admit", Version: e.Version, Meta: e.Meta,
		CreatedAt: e.CreatedAt, Seq: e.seq, Model: model,
	})
}

// journalActivateLocked appends an activation record; caller holds r.mu.
func (r *Registry) journalActivateLocked(version string) error {
	if r.persist == nil {
		return nil
	}
	return r.appendLocked(record{Op: "activate", Version: version})
}

// appendLocked journals one record and compacts when the journal crosses
// the size bound.
func (r *Registry) appendLocked(rc record) error {
	b, err := json.Marshal(rc)
	if err != nil {
		return fmt.Errorf("registry: marshaling journal record: %w", err)
	}
	if err := r.persist.j.Append(b); err != nil {
		return err
	}
	r.persist.records++
	if r.persist.j.Size() > r.persist.compactBytes {
		return r.compactLocked()
	}
	return nil
}

// compactLocked rewrites the full state as an atomic snapshot and resets
// the journal. Ordering is what makes a crash anywhere safe: the snapshot
// lands (atomically) while the journal still holds everything, so a crash
// before the reset merely replays duplicates, which applyAdmit skips.
func (r *Registry) compactLocked() error {
	data, err := r.snapshotLocked()
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(filepath.Join(r.persist.dir, snapshotName), data, 0o644); err != nil {
		return err
	}
	r.persist.compactions++
	if err := r.persist.j.Reset(); err != nil {
		return err
	}
	r.persist.records = 0
	return nil
}

// snapshotLocked marshals the full registry state — the compaction file
// and the replication bootstrap document are the same bytes. Caller holds
// r.mu.
func (r *Registry) snapshotLocked() ([]byte, error) {
	entries := make([]*Entry, 0, len(r.versions))
	for _, e := range r.versions {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	snap := snapshotFile{Previous: r.previous}
	if e := r.active.Load(); e != nil {
		snap.Active = e.Version
	}
	for _, e := range entries {
		model, err := json.Marshal(e.Model)
		if err != nil {
			return nil, fmt.Errorf("registry: marshaling %s for snapshot: %w", e.Version, err)
		}
		snap.Admits = append(snap.Admits, record{
			Op: "admit", Version: e.Version, Meta: e.Meta,
			CreatedAt: e.CreatedAt, Seq: e.seq, Model: model,
		})
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("registry: marshaling snapshot: %w", err)
	}
	return data, nil
}
