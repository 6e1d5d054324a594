package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// openCollect opens the journal collecting replayed records.
func openCollect(t *testing.T, path string) (*Journal, Recovery, [][]byte) {
	t.Helper()
	var recs [][]byte
	j, rec, err := OpenJournal(path, func(r []byte) error {
		recs = append(recs, append([]byte(nil), r...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	return j, rec, recs
}

func TestStoreWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("read back %q, want v1", got)
	}
	// Overwrite replaces wholesale.
	if err := WriteFileAtomic(path, []byte("v2-longer-content"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2-longer-content" {
		t.Fatalf("read back %q (%v), want v2-longer-content", got, err)
	}
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	// Missing directory fails cleanly, target untouched.
	if err := WriteFileAtomic(filepath.Join(dir, "no/such/dir/f"), []byte("x"), 0o644); err == nil {
		t.Error("write into missing directory should fail")
	}
}

func TestStoreJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, rec, recs := openCollect(t, path)
	if rec.Records != 0 || !rec.Clean() || len(recs) != 0 {
		t.Fatalf("fresh journal recovery = %+v", rec)
	}
	want := [][]byte{[]byte("one"), []byte(""), []byte("three-3"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wantSize := int64(0)
	for _, r := range want {
		wantSize += int64(frameHeader + len(r))
	}
	if j.Size() != wantSize {
		t.Errorf("Size = %d, want %d", j.Size(), wantSize)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("after close")); err == nil {
		t.Error("append after close should fail")
	}

	j2, rec2, recs2 := openCollect(t, path)
	defer j2.Close()
	if !rec2.Clean() || rec2.Records != len(want) {
		t.Fatalf("reopen recovery = %+v, want %d clean records", rec2, len(want))
	}
	if len(recs2) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs2), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs2[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, recs2[i], want[i])
		}
	}
	// Appends after recovery extend the same log.
	if err := j2.Append([]byte("five")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rec3, recs3 := openCollect(t, path)
	if rec3.Records != len(want)+1 || string(recs3[len(recs3)-1]) != "five" {
		t.Fatalf("after post-recovery append: %+v, last %q", rec3, recs3[len(recs3)-1])
	}
}

func TestStoreJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _, _ := openCollect(t, path)
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Errorf("Size after Reset = %d, want 0", j.Size())
	}
	// The journal keeps working after a reset.
	if err := j.Append([]byte("post-reset")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rec, recs := openCollect(t, path)
	if rec.Records != 1 || string(recs[0]) != "post-reset" {
		t.Fatalf("after reset+append: %+v, records %q", rec, recs)
	}
}

// buildJournal writes n records and returns the file bytes plus the byte
// offset where the final record's frame starts.
func buildJournal(t *testing.T, path string, payloads ...[]byte) (data []byte, lastOff int) {
	t.Helper()
	j, _, _ := openCollect(t, path)
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads[:len(payloads)-1] {
		lastOff += frameHeader + len(p)
	}
	return data, lastOff
}

// TestStoreTornTailSweep is the byte-level crash simulator the registry
// sweep builds on: truncating the journal at every offset inside the
// final record, and flipping every single byte of it, must always recover
// cleanly — all earlier records intact, the damaged tail dropped and
// reported, never a panic and never a corrupt record replayed.
func TestStoreTornTailSweep(t *testing.T) {
	base := t.TempDir()
	master, lastOff := buildJournal(t, filepath.Join(base, "master.log"),
		[]byte("alpha-record"), []byte("beta-record-longer"), []byte("gamma-final-record-payload"))

	check := func(name string, mutated []byte, wantTail bool) {
		t.Helper()
		path := filepath.Join(base, name+".log")
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, recs := openCollect(t, path)
		defer j.Close()
		if len(recs) < 2 {
			t.Fatalf("%s: only %d records survived, want the 2 intact ones", name, len(recs))
		}
		if string(recs[0]) != "alpha-record" || string(recs[1]) != "beta-record-longer" {
			t.Fatalf("%s: intact records corrupted: %q", name, recs)
		}
		if wantTail {
			if rec.Clean() {
				t.Fatalf("%s: recovery reported clean for damaged tail", name)
			}
			if len(recs) != 2 {
				t.Fatalf("%s: %d records replayed, want exactly 2 (damaged tail dropped)", name, len(recs))
			}
			// Recovery repairs the file: a second open is clean.
			j.Close()
			j2, rec2, recs2 := openCollect(t, path)
			j2.Close()
			if !rec2.Clean() || len(recs2) != 2 {
				t.Fatalf("%s: second open after repair = %+v with %d records", name, rec2, len(recs2))
			}
		}
	}

	// Every truncation point inside the final record's frame.
	for cut := lastOff; cut < len(master); cut++ {
		mutated := append([]byte(nil), master[:cut]...)
		check(fmt.Sprintf("trunc-%d", cut), mutated, cut != lastOff && cut != len(master))
	}
	// Every single-byte flip inside the final record's frame.
	for i := lastOff; i < len(master); i++ {
		mutated := append([]byte(nil), master...)
		mutated[i] ^= 0xFF
		check(fmt.Sprintf("flip-%d", i), mutated, true)
	}
}

// TestStoreQuarantineMidJournal corrupts a record in the middle of the
// journal: replay must stop there, the unreachable suffix must be
// preserved in a quarantine file (not silently deleted), and the repaired
// journal must reopen cleanly.
func TestStoreQuarantineMidJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	master, _ := buildJournal(t, path,
		[]byte("first-ok"), []byte("second-corrupted"), []byte("third-unreachable"))

	// Flip one payload byte of the middle record.
	midPayload := frameHeader + len("first-ok") + frameHeader
	mutated := append([]byte(nil), master...)
	mutated[midPayload] ^= 0x01
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	j, rec, recs := openCollect(t, path)
	defer j.Close()
	if len(recs) != 1 || string(recs[0]) != "first-ok" {
		t.Fatalf("replayed %q, want just first-ok", recs)
	}
	if rec.QuarantineFile == "" || rec.QuarantinedBytes == 0 {
		t.Fatalf("mid-journal corruption not quarantined: %+v", rec)
	}
	qdata, err := os.ReadFile(rec.QuarantineFile)
	if err != nil {
		t.Fatalf("quarantine file unreadable: %v", err)
	}
	if !bytes.Equal(qdata, mutated[frameHeader+len("first-ok"):]) {
		t.Error("quarantine file does not preserve the corrupt suffix")
	}
	// The repaired journal reopens clean and accepts appends.
	j.Close()
	j2, rec2, recs2 := openCollect(t, path)
	defer j2.Close()
	if !rec2.Clean() || len(recs2) != 1 {
		t.Fatalf("post-repair open = %+v with %d records", rec2, len(recs2))
	}
	if err := j2.Append([]byte("fourth")); err != nil {
		t.Fatal(err)
	}
}

// hugeLengths are length fields beyond MaxRecord, including ones that are
// negative as a 32-bit int.
var hugeLengths = []uint32{MaxRecord + 1, 0x80000000, 0xFFFFFFFF}

// TestStoreJournalHugeLengthRejected hand-crafts a frame whose length
// field claims more than MaxRecord: recovery must treat it as corruption,
// not attempt the allocation.
func TestStoreJournalHugeLengthRejected(t *testing.T) {
	for _, n := range hugeLengths {
		path := filepath.Join(t.TempDir(), "journal.log")
		frame := make([]byte, frameHeader+4)
		binary.LittleEndian.PutUint32(frame, n)
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeader:], crcTable))
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, recs := openCollect(t, path)
		if len(recs) != 0 || rec.Clean() {
			t.Fatalf("length %#x accepted: %+v, %d records", n, rec, len(recs))
		}
		if err := j.Append(make([]byte, MaxRecord+1)); err == nil {
			t.Error("append beyond MaxRecord should fail")
		}
		j.Close()
	}
}

func TestStoreCheckpointer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	var n int
	ck, err := NewCheckpointer(path, time.Hour, func() ([]byte, error) {
		n++
		return []byte(fmt.Sprintf("state-%d", n)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flush on demand, independent of the (hour-long) ticker.
	wrote, err := ck.Flush()
	if err != nil || wrote != len("state-1") {
		t.Fatalf("Flush = %d, %v", wrote, err)
	}
	if got, _ := os.ReadFile(path); string(got) != "state-1" {
		t.Fatalf("checkpoint file = %q", got)
	}
	ck.Close()
	ck.Close() // idempotent
	// Final flush after Close (the shutdown path).
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "state-2" {
		t.Fatalf("final checkpoint = %q, want state-2", got)
	}

	if _, err := NewCheckpointer(path, 0, func() ([]byte, error) { return nil, nil }); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewCheckpointer(path, time.Second, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// frameFor builds one valid journal frame around payload.
func frameFor(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	return frame
}

// TestStoreOversizedLengthPrefixQuarantined is the regression test for a
// corrupted LE length prefix mid-file: a flipped length field must be
// treated as corruption — the unreachable suffix preserved in a
// quarantine sidecar, never silently truncated away and never used to
// size an allocation — while every record before it still replays.
func TestStoreOversizedLengthPrefixQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	good := frameFor([]byte("first"))
	bad := make([]byte, frameHeader+32)
	binary.LittleEndian.PutUint32(bad, uint32(MaxRecord+4096))
	copy(bad[frameHeader:], bytes.Repeat([]byte{0xab}, 32))
	suffix := frameFor([]byte("unreachable-but-valid"))
	if err := os.WriteFile(path, append(append(append([]byte(nil), good...), bad...), suffix...), 0o644); err != nil {
		t.Fatal(err)
	}

	j, rec, recs := openCollect(t, path)
	defer j.Close()
	if len(recs) != 1 || string(recs[0]) != "first" {
		t.Fatalf("replayed %d records (%q), want just the one before the corruption", len(recs), recs)
	}
	if rec.QuarantineFile == "" {
		t.Fatalf("oversized length prefix not quarantined: %+v", rec)
	}
	if want := int64(len(bad) + len(suffix)); rec.QuarantinedBytes != want {
		t.Errorf("quarantined %d bytes, want the whole %d-byte suffix", rec.QuarantinedBytes, want)
	}
	qdata, err := os.ReadFile(rec.QuarantineFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qdata, append(append([]byte(nil), bad...), suffix...)) {
		t.Error("quarantine sidecar does not preserve the dropped bytes")
	}
	// The repaired journal accepts appends and reopens clean.
	if err := j.Append([]byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, rec2, recs2 := openCollect(t, path)
	defer j2.Close()
	if !rec2.Clean() || len(recs2) != 2 {
		t.Fatalf("post-repair open = %+v with %d records", rec2, len(recs2))
	}
}

// TestStoreDecodeFramesBounds locks the streaming decoder the replication
// follower feeds tail responses through: complete frames decode, a
// partial tail frame is left unconsumed, and a corrupt length prefix
// errors before any allocation could be sized from it.
func TestStoreDecodeFramesBounds(t *testing.T) {
	a, b := frameFor([]byte("alpha")), frameFor([]byte("beta"))
	buf := append(append([]byte(nil), a...), b...)

	payloads, consumed, err := DecodeFrames(buf)
	if err != nil || consumed != len(buf) || len(payloads) != 2 ||
		string(payloads[0]) != "alpha" || string(payloads[1]) != "beta" {
		t.Fatalf("DecodeFrames = %q consumed %d err %v", payloads, consumed, err)
	}

	// A partial trailing frame is not corruption: it is simply not consumed.
	partial := append(append([]byte(nil), buf...), b[:frameHeader+2]...)
	payloads, consumed, err = DecodeFrames(partial)
	if err != nil || consumed != len(buf) || len(payloads) != 2 {
		t.Fatalf("partial tail: %d payloads consumed %d err %v, want 2 consumed %d", len(payloads), consumed, err, len(buf))
	}

	// An oversized length claim is corruption, reported before allocating.
	for _, n := range hugeLengths {
		huge := make([]byte, frameHeader+8)
		binary.LittleEndian.PutUint32(huge, n)
		payloads, consumed, err = DecodeFrames(append(append([]byte(nil), a...), huge...))
		if !errors.Is(err, ErrCorruptFrame) || consumed != len(a) || len(payloads) != 1 {
			t.Fatalf("length %#x: %d payloads consumed %d err %v, want ErrCorruptFrame after first frame", n, len(payloads), consumed, err)
		}
	}

	// A flipped payload bit fails the checksum.
	flipped := append([]byte(nil), a...)
	flipped[frameHeader] ^= 0x01
	if _, _, err := DecodeFrames(flipped); err == nil {
		t.Error("checksum mismatch not reported")
	}
}

// TestDistJournalAppendResetSizeRace locks the compaction/append
// interleaving the replication tailer depends on: Append after Reset with
// a concurrent Size reader must be race-free, Size must never go
// negative, and whatever survives the interleaving must reopen clean.
func TestDistJournalAppendResetSizeRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, rec, _ := openCollect(t, path)
	if !rec.Clean() {
		t.Fatalf("fresh journal not clean: %+v", rec)
	}

	stop := make(chan struct{})
	var sizeErr error
	done := make(chan struct{})
	go func() { // the tailer's view: poll Size while writers churn
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := j.Size(); s < 0 && sizeErr == nil {
				sizeErr = fmt.Errorf("Size() = %d", s)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w == 0 && i%50 == 49 { // the compactor's reset
					if err := j.Reset(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	if sizeErr != nil {
		t.Fatal(sizeErr)
	}

	// Append still works after the final Reset/append interleaving, and
	// the journal's surviving contents replay without repair.
	if err := j.Append([]byte("marker")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, rec2, recs := openCollect(t, path)
	defer j2.Close()
	if !rec2.Clean() {
		t.Fatalf("journal after churn not clean: %+v", rec2)
	}
	if len(recs) == 0 || string(recs[len(recs)-1]) != "marker" {
		t.Fatalf("last record = %q over %d records, want marker", recs, len(recs))
	}
}
