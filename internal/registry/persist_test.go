package registry

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/models"
)

// mustOpen opens a persistent registry, failing the test on error.
func mustOpen(t testing.TB, dir string, opts OpenOptions) (*Registry, *Recovery) {
	t.Helper()
	r, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return r, rec
}

// stateOf captures the externally observable registry state for
// equivalence checks: full listing (order, versions, active flag) plus
// the rollback target.
func stateOf(r *Registry) (list []Info, previous string) {
	list = r.List()
	r.mu.Lock()
	previous = r.previous
	r.mu.Unlock()
	return list, previous
}

func sameState(t *testing.T, got, want *Registry, context string) {
	t.Helper()
	gl, gp := stateOf(got)
	wl, wp := stateOf(want)
	if !reflect.DeepEqual(gl, wl) {
		t.Fatalf("%s: List() diverged:\n got %+v\nwant %+v", context, gl, wl)
	}
	if gp != wp {
		t.Fatalf("%s: rollback target %q, want %q", context, gp, wp)
	}
	if got.ActiveVersion() != want.ActiveVersion() {
		t.Fatalf("%s: active %q, want %q", context, got.ActiveVersion(), want.ActiveVersion())
	}
}

func TestRecoveryRegistryBasic(t *testing.T) {
	dir := t.TempDir()
	r, rec := mustOpen(t, dir, OpenOptions{})
	if !rec.Journal.Clean() || rec.Versions != 0 {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	if !r.Persistent() {
		t.Fatal("Open must return a persistent registry")
	}
	if err := r.Add("v1", mkCluster(t, "p", 10), Meta{Description: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("v2", mkCluster(t, "p", 20), Meta{Source: "retrain"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Activate("v2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, rec2 := mustOpen(t, dir, OpenOptions{})
	defer r2.Close()
	if !rec2.Journal.Clean() || rec2.SkippedRecords != 0 {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	if rec2.Versions != 2 || rec2.Active != "v2" {
		t.Fatalf("recovery report = %+v, want 2 versions active v2", rec2)
	}
	if got := r2.ActiveVersion(); got != "v2" {
		t.Fatalf("active after reopen = %q", got)
	}
	// The rollback target survives too: roll back to v1.
	prev, err := r2.Rollback()
	if err != nil || prev != "v1" {
		t.Fatalf("Rollback after reopen = %q, %v", prev, err)
	}
	// Models round-trip bit-identically through JSON: same predictions.
	e, ok := r2.Get("v1")
	if !ok {
		t.Fatal("v1 missing after reopen")
	}
	mm, ok := e.Model.ByPlatform["p"]
	if !ok {
		t.Fatal("platform p missing")
	}
	if got, want := mm.Model.Predict([]float64{3, 4}), 10+1*3.0+2*4.0; got != want {
		t.Fatalf("recovered model predicts %v, want %v", got, want)
	}
}

// TestRecoveryEquivalenceProperty drives random Add/Activate/Rollback
// sequences against a persistent registry and an in-memory mirror, then
// reopens the persistent one: every observable — List order, versions,
// active version, rollback target — must match the mirror exactly.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			dir := t.TempDir()
			persisted, _ := mustOpen(t, dir, OpenOptions{})
			mirror := New()
			// Freeze time so CreatedAt compares equal across the pair and
			// across the JSON round trip (Unix-second UTC survives exactly).
			fixed := time.Unix(1700000000, 0).UTC()
			persisted.now = func() time.Time { return fixed }
			mirror.now = persisted.now

			var admitted []string
			for op := 0; op < 30; op++ {
				switch k := rng.Intn(10); {
				case k < 5: // admit a new version
					v := fmt.Sprintf("v%d", len(admitted)+1)
					cm1 := mkCluster(t, "p", float64(10+len(admitted)))
					cm2 := mkCluster(t, "p", float64(10+len(admitted)))
					if err := persisted.Add(v, cm1, Meta{Description: v}); err != nil {
						t.Fatal(err)
					}
					if err := mirror.Add(v, cm2, Meta{Description: v}); err != nil {
						t.Fatal(err)
					}
					admitted = append(admitted, v)
				case k < 8: // activate a random known (or unknown) version
					v := "nope"
					if len(admitted) > 0 && k != 7 {
						v = admitted[rng.Intn(len(admitted))]
					}
					e1 := persisted.Activate(v)
					e2 := mirror.Activate(v)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("Activate(%s) diverged: %v vs %v", v, e1, e2)
					}
				default: // rollback
					p1, e1 := persisted.Rollback()
					p2, e2 := mirror.Rollback()
					if p1 != p2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("Rollback diverged: (%q,%v) vs (%q,%v)", p1, e1, p2, e2)
					}
				}
			}
			sameState(t, persisted, mirror, "live")
			if err := persisted.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, rec := mustOpen(t, dir, OpenOptions{})
			defer reopened.Close()
			if !rec.Journal.Clean() || rec.SkippedRecords != 0 {
				t.Fatalf("reopen not clean: %+v", rec)
			}
			sameState(t, reopened, mirror, "reopened")
		})
	}
}

// TestRecoveryTornTailRegistry runs the byte-level crash sweep at the
// registry level: with the final journal record truncated at every offset
// or any of its bytes flipped, Open must recover the state as of the
// previous record — never panic, never a partial model.
func TestRecoveryTornTailRegistry(t *testing.T) {
	// Build a master journal: admit v1, admit v2, activate v2. The final
	// record is the activation, so every damaged variant must recover to
	// "v1 active, both admitted" or better-formed prefixes thereof.
	master := t.TempDir()
	r, _ := mustOpen(t, master, OpenOptions{})
	if err := r.Add("v1", mkCluster(t, "p", 10), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("v2", mkCluster(t, "p", 20), Meta{}); err != nil {
		t.Fatal(err)
	}
	_, sizeBefore, _, _, _ := r.ReplicationStatus()
	if err := r.Activate("v2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(master, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lastOff := int(sizeBefore)

	check := func(name string, mutated []byte, wantDamage bool, wantActive string) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		r, rec := mustOpen(t, dir, OpenOptions{})
		defer r.Close()
		if r.Len() != 2 {
			t.Fatalf("%s: %d versions recovered, want 2", name, r.Len())
		}
		active := r.ActiveVersion()
		if wantDamage && rec.Journal.Clean() {
			t.Fatalf("%s: damage not reported", name)
		}
		if !wantDamage && !rec.Journal.Clean() {
			t.Fatalf("%s: spurious damage report %+v", name, rec.Journal)
		}
		if active != wantActive {
			t.Fatalf("%s: active %q, want %q", name, active, wantActive)
		}
		// The recovered registry still serves: the active model predicts.
		e := r.Active()
		mm, ok := e.Model.ByPlatform["p"]
		if !ok {
			t.Fatalf("%s: active model lost platform", name)
		}
		want := 10 + 3.0 // v1: intercept 10, coefs {1,2} on inputs {1,1}
		if active == "v2" {
			want = 20 + 3.0
		}
		if got := mm.Model.Predict([]float64{1, 1}); got != want {
			t.Fatalf("%s: recovered model predicts %v, want %v", name, got, want)
		}
	}

	// Truncating exactly at the last frame boundary leaves a clean journal
	// missing the activation; any cut inside the frame is a torn tail. In
	// both cases the activation is lost, so v1 (the auto-activated first
	// admit) must be serving.
	for cut := lastOff; cut < len(data); cut++ {
		check(fmt.Sprintf("trunc-%d", cut), append([]byte(nil), data[:cut]...), cut != lastOff, "v1")
	}
	// Any single flipped byte in the final frame fails its checksum (or
	// breaks the frame): the activation must be dropped, never misapplied.
	for i := lastOff; i < len(data); i++ {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		check(fmt.Sprintf("flip-%d", i), mutated, true, "v1")
	}
	// The undamaged journal recovers v2 active, for contrast.
	check("intact", append([]byte(nil), data...), false, "v2")
}

// TestRecoveryCompaction forces compaction with a tiny size bound: the
// journal must stay bounded, the snapshot must appear, and reopening from
// snapshot+journal must reproduce the exact state.
func TestRecoveryCompaction(t *testing.T) {
	dir := t.TempDir()
	const bound = 8 << 10
	r, _ := mustOpen(t, dir, OpenOptions{CompactBytes: bound})
	mirror := New()
	r.now = mirror.now
	for i := 0; i < 60; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := r.Add(v, mkCluster(t, "p", float64(i)), Meta{Description: v}); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Add(v, mkCluster(t, "p", float64(i)), Meta{Description: v}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			target := fmt.Sprintf("v%d", i/2)
			if err := r.Activate(target); err != nil {
				t.Fatal(err)
			}
			if err := mirror.Activate(target); err != nil {
				t.Fatal(err)
			}
		}
		if _, sz, _, _, _ := r.ReplicationStatus(); sz > bound {
			t.Fatalf("journal grew to %d, bound %d", sz, bound)
		}
	}
	if _, _, _, compactions, _ := r.ReplicationStatus(); compactions == 0 {
		t.Fatal("no compaction ran despite tiny bound")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, rec := mustOpen(t, dir, OpenOptions{CompactBytes: bound})
	defer reopened.Close()
	if !rec.FromSnapshot {
		t.Fatal("reopen did not load the snapshot")
	}
	// CreatedAt flows through the journal, so the mirror (which shares a
	// clock only in-memory) can't be compared on timestamps; compare the
	// rest field by field.
	gl, _ := stateOf(reopened)
	wl, _ := stateOf(mirror)
	if len(gl) != len(wl) {
		t.Fatalf("reopened %d versions, want %d", len(gl), len(wl))
	}
	for i := range gl {
		gl[i].CreatedAt = wl[i].CreatedAt
		if !reflect.DeepEqual(gl[i], wl[i]) {
			t.Fatalf("version %d diverged:\n got %+v\nwant %+v", i, gl[i], wl[i])
		}
	}
	if reopened.ActiveVersion() != mirror.ActiveVersion() {
		t.Fatalf("active %q, want %q", reopened.ActiveVersion(), mirror.ActiveVersion())
	}
}

// TestRecoveryInterruptedCompaction simulates a crash between the snapshot
// write and the journal reset — the one window where both files hold the
// full state. It saves the journal bytes, runs compaction (snapshot +
// reset), closes, then restores the saved journal: the disk now looks
// exactly like the crash left it. Replay must dedupe the overlap, not
// error or double-admit.
func TestRecoveryInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.log")
	r, _ := mustOpen(t, dir, OpenOptions{})
	for i := 0; i < 5; i++ {
		if err := r.Add(fmt.Sprintf("v%d", i), mkCluster(t, "p", float64(i)), Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Activate("v3"); err != nil {
		t.Fatal(err)
	}
	preReset, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	cerr := r.compactLocked()
	r.mu.Unlock()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, preReset, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, rec := mustOpen(t, dir, OpenOptions{})
	defer reopened.Close()
	if !rec.FromSnapshot {
		t.Fatal("snapshot not used")
	}
	if reopened.Len() != 5 || reopened.ActiveVersion() != "v3" {
		t.Fatalf("recovered %d versions active %q, want 5 active v3", reopened.Len(), reopened.ActiveVersion())
	}
	// Every journaled admit duplicated the snapshot and must be skipped.
	if rec.SkippedRecords < 5 {
		t.Fatalf("only %d duplicate records skipped, want >= 5", rec.SkippedRecords)
	}
	// List order survives the overlap: v0..v4 in admission order.
	list := reopened.List()
	versions := make([]string, len(list))
	for i, inf := range list {
		versions[i] = inf.Version
	}
	if !sort.StringsAreSorted(versions) || len(versions) != 5 {
		t.Fatalf("admission order lost: %v", versions)
	}
}

// TestRecoveryRejectsInvalidModelRecord admits a hand-corrupted model
// document (valid JSON, fails validation) straight into the journal: Open
// must skip it and report the skip rather than serve an unservable model.
func TestRecoveryRejectsInvalidModelRecord(t *testing.T) {
	dir := t.TempDir()
	r, _ := mustOpen(t, dir, OpenOptions{})
	if err := r.Add("good", mkCluster(t, "p", 1), Meta{}); err != nil {
		t.Fatal(err)
	}
	// Append a syntactically valid admit whose model fails validation.
	r.mu.Lock()
	err := r.appendLocked(record{Op: "admit", Version: "bad", Model: []byte(`{"models":{}}`)})
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, rec := mustOpen(t, dir, OpenOptions{})
	defer reopened.Close()
	if reopened.Len() != 1 || rec.SkippedRecords != 1 {
		t.Fatalf("invalid model not skipped: %d versions, %d skipped", reopened.Len(), rec.SkippedRecords)
	}
	if _, ok := reopened.Get("bad"); ok {
		t.Fatal("unvalidatable model was admitted on replay")
	}
}

// BenchmarkRegistryOpen replays a journal holding 100 admitted models —
// the acceptance bound is "well under a second" for a restart at that
// scale.
func BenchmarkRegistryOpen(b *testing.B) {
	dir := b.TempDir()
	r, _, err := Open(dir, OpenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mm := &models.MachineModel{
		Platform: "p",
		Spec:     models.FeatureSpec{Name: "bench", Counters: []string{"a", "b"}},
		Model:    &models.Linear{Intercept: 5, Coef: []float64{1, 2}},
	}
	cm, err := models.NewClusterModel(mm)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.Add(fmt.Sprintf("v%d", i), cm, Meta{Description: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Activate("v50"); err != nil {
		b.Fatal(err)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2, rec, err := Open(dir, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Versions != 100 || rec.Active != "v50" {
			b.Fatalf("recovered %d versions active %s", rec.Versions, rec.Active)
		}
		r2.Close()
	}
}
