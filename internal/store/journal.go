package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Record framing: a 4-byte little-endian payload length, a 4-byte
// CRC32-Castagnoli of the payload, then the payload. The checksum is what
// lets recovery tell a half-written tail from a complete record — a torn
// append can truncate the frame or scramble bytes, but it cannot forge a
// matching checksum.
const frameHeader = 8

// MaxRecord bounds one record's payload. A length field above it is
// treated as corruption, not an allocation request — a flipped bit in the
// length prefix must never make recovery try to read gigabytes.
const MaxRecord = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Recovery describes what OpenJournal found and repaired. A journal that
// was closed cleanly reports zero everywhere except Records.
type Recovery struct {
	// Records is the number of valid records replayed.
	Records int
	// TruncatedBytes were dropped from the tail: a partial or
	// checksum-corrupt final record (the classic kill -9 mid-append).
	TruncatedBytes int64
	// TruncatedRecords counts the dropped tail frames (0 or 1).
	TruncatedRecords int
	// QuarantineFile, when set, holds bytes removed from the middle of the
	// journal: a complete-but-corrupt record with valid-looking data after
	// it. Replay stops at the corruption; the suffix is preserved for
	// forensics rather than silently deleted.
	QuarantineFile   string
	QuarantinedBytes int64
}

// Clean reports whether recovery found nothing to repair.
func (r Recovery) Clean() bool {
	return r.TruncatedBytes == 0 && r.TruncatedRecords == 0 && r.QuarantineFile == ""
}

// Journal is an append-only record log. Appends are serialized and
// fsynced; OpenJournal replays existing records and repairs any damage
// before handing the journal back for appending.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64
}

// OpenJournal opens (creating if absent) the journal at path, replays
// every valid record through replay in order, repairs the file — torn
// tails are truncated, mid-file corruption quarantined — and returns the
// journal ready for appends. replay errors abort the open.
func OpenJournal(path string, replay func(rec []byte) error) (*Journal, Recovery, error) {
	var rec Recovery
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, rec, fmt.Errorf("store: reading journal %s: %w", path, err)
	}

	off := 0
	corrupt := -1 // offset of the first bad frame, -1 when none
	tornTail := false
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeader {
			corrupt, tornTail = off, true
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n > MaxRecord {
			// A torn append leaves a prefix of a valid frame, so its length
			// bytes are either missing or sane — a length beyond MaxRecord
			// means the prefix itself is corrupt. Quarantine the suffix (it
			// may hold valid records we can no longer find the boundaries
			// of) rather than silently truncating it, and never size an
			// allocation from the corrupt field.
			corrupt, tornTail = off, false
			break
		}
		end := off + frameHeader + int(n)
		if end > len(data) {
			// The frame claims to extend past EOF: a torn append.
			corrupt, tornTail = off, true
			break
		}
		payload := data[off+frameHeader : end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			// Complete frame, bad checksum. At EOF it is a torn/flipped
			// tail; mid-file it means later records are unreachable and the
			// whole suffix is quarantined.
			corrupt, tornTail = off, end == len(data)
			break
		}
		if err := replay(payload); err != nil {
			return nil, rec, fmt.Errorf("store: replaying journal %s record %d: %w", path, rec.Records, err)
		}
		rec.Records++
		off = end
	}

	if corrupt >= 0 {
		dropped := data[corrupt:]
		if tornTail {
			rec.TruncatedBytes = int64(len(dropped))
			rec.TruncatedRecords = 1
			truncatedRecords.Inc()
		} else {
			qpath, err := quarantine(path, dropped)
			if err != nil {
				return nil, rec, err
			}
			rec.QuarantineFile = qpath
			rec.QuarantinedBytes = int64(len(dropped))
			quarantinesTotal.Inc()
		}
		if err := os.Truncate(path, int64(corrupt)); err != nil {
			return nil, rec, fmt.Errorf("store: truncating journal %s: %w", path, err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("store: opening journal %s: %w", path, err)
	}
	if corrupt >= 0 {
		// Make the repair durable before anything is appended after it.
		if err := f.Sync(); err != nil {
			f.Close() //nolint:errcheck // already failing
			return nil, rec, fmt.Errorf("store: fsync repaired journal %s: %w", path, err)
		}
		fsyncsTotal.Inc()
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, rec, fmt.Errorf("store: stat journal %s: %w", path, err)
	}
	return &Journal{path: path, f: f, size: st.Size()}, rec, nil
}

// quarantine preserves corrupt journal bytes in a sidecar file next to
// the journal, picking the first free .quarantine-N name.
func quarantine(path string, data []byte) (string, error) {
	for i := 0; ; i++ {
		qpath := fmt.Sprintf("%s.quarantine-%d", path, i)
		f, err := os.OpenFile(qpath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("store: creating quarantine %s: %w", qpath, err)
		}
		if _, err := f.Write(data); err != nil {
			f.Close() //nolint:errcheck // already failing
			return "", fmt.Errorf("store: writing quarantine %s: %w", qpath, err)
		}
		if err := f.Sync(); err != nil {
			f.Close() //nolint:errcheck // already failing
			return "", fmt.Errorf("store: fsync quarantine %s: %w", qpath, err)
		}
		fsyncsTotal.Inc()
		if err := f.Close(); err != nil {
			return "", fmt.Errorf("store: closing quarantine %s: %w", qpath, err)
		}
		return qpath, syncDir(filepath.Dir(path))
	}
}

// Append frames, writes, and fsyncs one record. When Append returns nil
// the record survives a crash; when it returns an error the journal may
// hold a torn frame, which the next OpenJournal repairs.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds MaxRecord", len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", j.path, err)
	}
	fsyncsTotal.Inc()
	bytesTotal.Add(float64(len(frame)))
	j.size += int64(len(frame))
	return nil
}

// Size returns the journal's current byte size (the compaction trigger).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Reset empties the journal (after its contents have been compacted into
// a snapshot elsewhere) and makes the truncation durable.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", j.path, err)
	}
	fsyncsTotal.Inc()
	j.size = 0
	return nil
}

// ErrCorruptFrame reports that a frame prefix cannot be a valid record:
// its length field exceeds MaxRecord or its checksum does not match. The
// replication follower resynchronizes from a snapshot when it sees this.
var ErrCorruptFrame = fmt.Errorf("store: corrupt frame")

// DecodeFrames parses complete, checksum-valid frames from the front of
// buf — the journal bytes a replication tail response carries verbatim.
// It returns the record payloads (sub-slices of buf; copy before holding)
// and the bytes consumed. A trailing partial frame is not an error: it is
// simply left unconsumed for the caller to complete on the next read. The
// length field is bounded against MaxRecord and the remaining buffer
// before it can size anything, so a corrupted length prefix yields
// ErrCorruptFrame, never a huge allocation.
func DecodeFrames(buf []byte) (payloads [][]byte, consumed int, err error) {
	off := 0
	for len(buf)-off >= frameHeader {
		n := binary.LittleEndian.Uint32(buf[off:])
		if n > MaxRecord {
			return payloads, off, fmt.Errorf("%w: length %d exceeds MaxRecord at offset %d", ErrCorruptFrame, n, off)
		}
		end := off + frameHeader + int(n)
		if end > len(buf) {
			break // partial tail frame: wait for more bytes
		}
		payload := buf[off+frameHeader : end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[off+4:]) {
			return payloads, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorruptFrame, off)
		}
		payloads = append(payloads, payload)
		off = end
	}
	return payloads, off, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the journal file. Append and Reset fail afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
