// Package cellcache is the content-addressed result store behind the
// experiment engine's incremental recomputation: grid-cell results are
// keyed by a hash of everything that determines them (see sim.CellKey),
// so a repeat run serves finished cells from the store instead of
// simulating them again.
//
// It is the repository's only persistence layer: resuming an interrupted
// run means rerunning it against the same cache directory, which serves
// every cell (and calibrated IPC) the first run finished.
//
// The store is one file per key under a cache directory; it keeps no
// copy in memory (the Runner memoizes decoded results itself). Each
// write lands a temp file, fsyncs it, and renames it into place, so a
// reader never sees a torn entry and a killed writer leaves at most an
// orphaned temp file. Each file carries a checksum header; an entry that
// fails the checksum — corruption, truncation, a foreign file — is
// treated as a miss, never as an error. Stale entries cannot be served
// at all: any semantic change to the simulator bumps sim.SchemaVersion,
// which changes every key.
//
// Values are opaque bytes to this package; the sim layer encodes and
// decodes them and performs its own identity validation on top.
package cellcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// fileVersion heads every on-disk entry. It versions the file framing
// only (header + payload); the cached *content* is versioned by the keys
// themselves via sim.SchemaVersion.
const fileVersion = "aqua-cellcache-v1"

// Stats counts how the store answered.
type Stats struct {
	// DiskHits were read (and checksum-verified) from the cache directory.
	DiskHits int64
	// Misses had no valid entry.
	Misses int64
	// Corrupt entries were found on disk but failed validation (checksum
	// mismatch, bad framing) and were reported as misses.
	Corrupt int64
	// Puts is the number of entries written.
	Puts int64
	// WriteErrors counts failed disk writes. A failed write only costs
	// a future recomputation.
	WriteErrors int64
}

// Store is a content-addressed byte store over a cache directory. A nil
// *Store is inert: every Get misses and every Put is dropped, so callers
// need no "is caching on?" branches.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats // guarded by mu
}

// New opens a store over dir, creating the directory (with parents).
func New(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cellcache: no cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// validKey rejects keys that could escape the cache directory or collide
// with temp files. sim.CellKey produces lowercase hex, which passes.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// Get returns the value stored under key. A missing, corrupt, or
// invalid entry is (nil, false) — never an error.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, key))
	if err != nil {
		s.miss()
		return nil, false
	}
	payload, ok := decodeEntry(raw)
	if !ok {
		s.mu.Lock()
		s.stats.Corrupt++
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.mu.Unlock()
	return payload, true
}

func (s *Store) miss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

// Put stores value under key atomically on disk (temp file + fsync +
// rename). Disk failures are absorbed into Stats.WriteErrors — losing
// an entry only costs a future recomputation, never correctness.
//
//detertaint:root
func (s *Store) Put(key string, value []byte) {
	if s == nil || !validKey(key) {
		return
	}
	s.mu.Lock()
	s.stats.Puts++
	s.mu.Unlock()
	if err := s.writeFile(key, value); err != nil {
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
	}
}

// writeFile lands one entry atomically: concurrent writers for the same
// key each write their own temp file and the last rename wins, which is
// harmless because identical keys hold identical content.
func (s *Store) writeFile(key string, value []byte) error {
	f, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(encodeEntry(value)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// encodeEntry frames a payload as "<version> sha256=<hex>\n<payload>".
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s sha256=%s\n", fileVersion, hex.EncodeToString(sum[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// decodeEntry validates the framing and checksum, returning the payload.
func decodeEntry(raw []byte) ([]byte, bool) {
	idx := bytes.IndexByte(raw, '\n')
	if idx < 0 {
		return nil, false
	}
	header, payload := string(raw[:idx]), raw[idx+1:]
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != fileVersion || !strings.HasPrefix(fields[1], "sha256=") {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != strings.TrimPrefix(fields[1], "sha256=") {
		return nil, false
	}
	return payload, true
}
