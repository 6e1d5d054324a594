package lifecycle

import (
	"encoding/json"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/online"
)

// Checkpointing: the orchestrator's closed-loop progress — held-out
// window, retrain buffers, probation bookkeeping, counters — serializes
// to one JSON document so a restart resumes the loop where it left off
// instead of forgetting a promotion it was mid-way through vetting. The
// document is written atomically by the serving binary (store.Checkpointer);
// this file only defines what the state is and how it restores.
//
// Restore rules per phase: training collapses to idle (the in-flight fit
// died with the process; its trigger re-fires from the restored buffers),
// shadowing resumes with its live window (the newest live_n snapshots of
// held_out) when the challenger is still in the registry, and
// probation resumes with its accumulated evidence — a restart must not
// let a bad promotion skip the rest of its probation window.

// checkpointDoc is the serialized orchestrator state.
type checkpointDoc struct {
	State        string     `json:"state"`
	Names        []string   `json:"names"`
	HeldOut      []Snapshot `json:"held_out,omitempty"` // oldest first
	SinceRetrain int        `json:"since_retrain"`

	Challenger string `json:"challenger,omitempty"`
	Champion   string `json:"champion,omitempty"`
	HeldChamp  Score  `json:"held_champ,omitempty"`
	HeldChall  Score  `json:"held_chall,omitempty"`

	LiveN int `json:"live_n,omitempty"`

	PromotedVersion string  `json:"promoted_version,omitempty"`
	PromotedPrev    string  `json:"promoted_prev,omitempty"`
	ShadowRMSE      float64 `json:"shadow_rmse,omitempty"`
	ProbationN      int     `json:"probation_n,omitempty"`
	ProbationSSE    float64 `json:"probation_sse,omitempty"`

	Seq         int     `json:"seq"`
	Retrains    int     `json:"retrains"`
	Promotions  int     `json:"promotions"`
	Rollbacks   int     `json:"rollbacks"`
	LastTrigger string  `json:"last_trigger,omitempty"`
	LastVerdict string  `json:"last_verdict,omitempty"`
	LastRatio   float64 `json:"last_ratio,omitempty"`
	LastErr     string  `json:"last_err,omitempty"`

	Retrainer online.RetrainerState `json:"retrainer"`
}

// MarshalCheckpoint serializes the orchestrator's current state. It is
// safe to call concurrently with ingestion and the background loop — the
// natural checkpoint source function.
func (o *Orchestrator) MarshalCheckpoint() ([]byte, error) {
	rtState := o.rt.State()
	o.mu.Lock()
	doc := checkpointDoc{
		State:        o.state.String(),
		Names:        append([]string(nil), o.cfg.Names...),
		HeldOut:      o.heldout.AppendTo(nil),
		SinceRetrain: o.sinceRetrain,

		Challenger: o.challenger,
		Champion:   o.champion,
		HeldChamp:  o.heldChamp,
		HeldChall:  o.heldChall,

		LiveN: o.liveN,

		PromotedVersion: o.promotedVersion,
		PromotedPrev:    o.promotedPrev,
		ShadowRMSE:      o.shadowRMSE,
		ProbationN:      o.probation.n,
		ProbationSSE:    o.probation.sse,

		Seq:         o.seq,
		Retrains:    o.retrains,
		Promotions:  o.promotions,
		Rollbacks:   o.rollbacks,
		LastTrigger: o.lastTrigger,
		LastVerdict: o.lastVerdict,
		LastRatio:   o.lastRatio,
		LastErr:     o.lastErr,

		Retrainer: rtState,
	}
	o.mu.Unlock()
	return json.Marshal(doc)
}

// RestoreCheckpoint loads a checkpoint produced by MarshalCheckpoint.
// It must be called after New and before Start: restoring into a running
// loop would race the state machine. The counter-name order must match
// the current configuration. A checkpoint that left the machine shadowing
// a challenger the registry no longer holds (e.g. its admission was the
// lost journal tail) restores to idle, with the error recorded, rather
// than refuse to boot.
func (o *Orchestrator) RestoreCheckpoint(data []byte) error {
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("lifecycle: parsing checkpoint: %w", err)
	}
	if len(doc.Names) != len(o.cfg.Names) {
		return fmt.Errorf("lifecycle: checkpoint has %d counters, config expects %d", len(doc.Names), len(o.cfg.Names))
	}
	for i, n := range doc.Names {
		if n != o.cfg.Names[i] {
			return fmt.Errorf("lifecycle: checkpoint counter %d is %q, config expects %q", i, n, o.cfg.Names[i])
		}
	}
	if err := o.rt.Restore(doc.Retrainer); err != nil {
		return err
	}
	var lost error
	if doc.State == stateShadowing.String() {
		if _, ok := o.reg.Get(doc.Challenger); !ok {
			lost = fmt.Errorf("lifecycle: challenger %q not in the registry", doc.Challenger)
			doc.State, doc.LastErr = stateIdle.String(), "restore-shadow: "+lost.Error()
		}
	}
	o.mu.Lock()
	if o.started {
		o.mu.Unlock()
		return fmt.Errorf("lifecycle: cannot restore a checkpoint after Start")
	}
	if o.closed {
		o.mu.Unlock()
		return fmt.Errorf("lifecycle: orchestrator closed")
	}

	// Refill the held-out window oldest-first; a checkpoint from a larger
	// HeldOut keeps its newest snapshots.
	o.heldout = mathx.NewRing[Snapshot](o.cfg.HeldOut)
	for _, s := range doc.HeldOut {
		o.heldout.Push(s)
	}
	o.sinceRetrain = doc.SinceRetrain

	switch doc.State {
	case stateShadowing.String():
		o.state = stateShadowing
		o.challenger = doc.Challenger
		o.champion = doc.Champion
		o.heldChamp = doc.HeldChamp
		o.heldChall = doc.HeldChall
		o.liveN = doc.LiveN
	case stateProbation.String():
		// Resume, never skip: the promoted model serves the rest of its
		// probation window with the evidence gathered so far.
		o.state = stateProbation
		o.promotedVersion = doc.PromotedVersion
		o.promotedPrev = doc.PromotedPrev
		o.shadowRMSE = doc.ShadowRMSE
		o.probation = probAccum{n: doc.ProbationN, sse: doc.ProbationSSE}
	default:
		// idle stays idle; a checkpoint taken mid-training restores to
		// idle — the fit was lost with the process and re-triggers from
		// the restored buffers.
		o.state = stateIdle
	}

	o.seq = doc.Seq
	o.retrains = doc.Retrains
	o.promotions = doc.Promotions
	o.rollbacks = doc.Rollbacks
	o.lastTrigger = doc.LastTrigger
	o.lastVerdict = doc.LastVerdict
	o.lastRatio = doc.LastRatio
	o.lastErr = doc.LastErr
	o.mu.Unlock()
	if lost != nil {
		o.emit("lifecycle_error", map[string]any{"stage": "restore-shadow", "error": lost.Error()})
	}
	return nil
}
