package registry

import (
	"encoding/json"
	"fmt"

	"repro/internal/models"
)

// parseModel unmarshals and re-validates a replicated model document: the
// CRC proved the bytes arrived intact, validation proves they are a
// servable model.
func parseModel(raw json.RawMessage) (*models.ClusterModel, error) {
	var cm models.ClusterModel
	if err := json.Unmarshal(raw, &cm); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	return &cm, nil
}

// Replication surface: a persistent registry's journal doubles as a
// replication log. A leader exposes the journal's bytes (the dist package
// serves them verbatim, CRC frames intact) plus a consistent snapshot for
// bootstrap; a follower applies replicated records through the same
// journaled mutation path it uses locally, so its own state directory
// recovers identically after a crash. Every apply is idempotent — replay
// already dedupes admissions by version — which is what makes offset
// resync after a torn tail or a leader restart safe.

// ReplicationStatus reports the journal's replication coordinates under
// one lock acquisition: its path, current byte size, record count, and
// epoch. The epoch counts compactions — when it advances, every
// follower's byte offset into the journal is invalid and the follower
// must resync from a snapshot. ok is false for in-memory registries.
func (r *Registry) ReplicationStatus() (path string, size int64, records, epoch int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.persist == nil {
		return "", 0, 0, 0, false
	}
	return r.persist.j.Path(), r.persist.j.Size(), r.persist.records, r.persist.compactions, true
}

// ReplicaSnapshot marshals the full state for follower bootstrap together
// with the journal coordinates the follower should resume tailing from.
// State and coordinates are captured under one lock acquisition, so the
// offset is exactly the journal position the snapshot reflects.
func (r *Registry) ReplicaSnapshot() (snapshot []byte, size int64, records, epoch int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.persist == nil {
		return nil, 0, 0, 0, fmt.Errorf("registry: in-memory registry cannot serve replication snapshots")
	}
	data, err := r.snapshotLocked()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return data, r.persist.j.Size(), r.persist.records, r.persist.compactions, nil
}

// ApplyReplicated applies one leader journal record to this registry,
// journaling it locally so the follower's own state directory stays
// recoverable. It is idempotent: a duplicate admission or a no-op
// re-activation applies cleanly and reports applied="". An activation of
// a version this registry has never seen is an error — the follower is
// behind or diverged and must resync from a snapshot.
func (r *Registry) ApplyReplicated(payload []byte) (applied string, err error) {
	var rc record
	if err := json.Unmarshal(payload, &rc); err != nil {
		return "", fmt.Errorf("registry: parsing replicated record: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch rc.Op {
	case "admit":
		return r.applyReplicatedAdmitLocked(&rc)
	case "activate":
		if _, ok := r.versions[rc.Version]; !ok {
			return "", fmt.Errorf("registry: replicated activation of unknown version %q", rc.Version)
		}
		swapped, err := r.activateLocked(rc.Version)
		if err != nil || !swapped {
			return "", err
		}
		return "activate:" + rc.Version, r.journalActivateLocked(rc.Version)
	default:
		return "", fmt.Errorf("registry: replicated record with unknown op %q", rc.Op)
	}
}

// applyReplicatedAdmitLocked admits one replicated version, preserving
// the leader's metadata and creation time so List() output is
// bit-identical across the fleet. Caller holds r.mu.
func (r *Registry) applyReplicatedAdmitLocked(rc *record) (string, error) {
	if rc.Version == "" || len(rc.Model) == 0 {
		return "", fmt.Errorf("registry: replicated admit missing version or model")
	}
	if _, dup := r.versions[rc.Version]; dup {
		return "", nil // idempotent re-apply after resync or restart
	}
	cm, err := parseModel(rc.Model)
	if err != nil {
		return "", fmt.Errorf("registry: replicated admit %s: %w", rc.Version, err)
	}
	r.seq++
	e := &Entry{Version: rc.Version, Meta: rc.Meta, Model: cm, CreatedAt: rc.CreatedAt, seq: r.seq}
	r.versions[rc.Version] = e
	versionsGauge.Set(float64(len(r.versions)))
	if r.active.Load() == nil {
		// Mirror Add's first-admission auto-activation: the leader's first
		// admit activated without a journal record, so the follower must
		// reproduce that rule to converge on the same active version.
		r.active.Store(e)
		activationsTotal.Inc()
	}
	return "admit:" + rc.Version, r.journalAdmitLocked(e)
}

// ApplySnapshot bootstraps (or repairs) this registry from a leader
// snapshot: admissions apply in the leader's order, duplicates are
// skipped, and the leader's active version and rollback target are
// adopted. Everything routes through the journaled mutation path, so a
// freshly bootstrapped follower is durable immediately.
func (r *Registry) ApplySnapshot(data []byte) error {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("registry: parsing replication snapshot: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range snap.Admits {
		if _, err := r.applyReplicatedAdmitLocked(&snap.Admits[i]); err != nil {
			return err
		}
	}
	if snap.Active != "" && snap.Active != r.activeVersionLocked() {
		swapped, err := r.activateLocked(snap.Active)
		if err != nil {
			return fmt.Errorf("registry: snapshot active version: %w", err)
		}
		if swapped {
			if err := r.journalActivateLocked(snap.Active); err != nil {
				return err
			}
		}
	}
	r.previous = snap.Previous
	return nil
}

// activeVersionLocked is ActiveVersion without re-entering the lock.
func (r *Registry) activeVersionLocked() string {
	if e := r.active.Load(); e != nil {
		return e.Version
	}
	return ""
}
