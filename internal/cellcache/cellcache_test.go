package cellcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPutCopiesValue pins that the store keeps its own copy: mutating
// the caller's slice after Put must not corrupt the cached entry.
func TestPutCopiesValue(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := []byte("original")
	s.Put("k1", v)
	copy(v, "XXXXXXXX")
	got, ok := s.Get("k1")
	if !ok || string(got) != "original" {
		t.Fatalf("Get = %q, %v; caller mutation leaked into the store", got, ok)
	}
}

// TestDiskPersistence pins the point of the store: an entry written by
// one Store is served by a fresh Store over the same directory, and the
// hit and a miss are counted.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("deadbeef", []byte("result bytes"))

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("deadbeef")
	if !ok || !bytes.Equal(got, []byte("result bytes")) {
		t.Fatalf("Get across stores = %q, %v; want result bytes, true", got, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v; want one disk hit", st)
	}
	if _, ok := s2.Get("missing"); ok {
		t.Fatal("missing key reported a hit")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v; want the missing key counted as a miss", st)
	}
}

// TestNoDirectory pins that a store needs a directory: there is no
// memory-only store.
func TestNoDirectory(t *testing.T) {
	if s, err := New(""); err == nil || s != nil {
		t.Fatalf("New(\"\") = %v, %v; want nil and an error", s, err)
	}
}

// TestCorruptEntryIsMiss pins the failure contract: a torn or tampered
// file is a silent miss counted in Corrupt — never an error, never a
// wrong payload.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("cafef00d", []byte("good"))

	cases := map[string][]byte{
		"flipped payload": []byte("aqua-cellcache-v1 sha256=0000000000000000000000000000000000000000000000000000000000000000\nevil"),
		"no header":       []byte("just bytes, no newline"),
		"wrong version":   append([]byte("aqua-cellcache-v0 sha256=deadbeef\n"), []byte("x")...),
		"truncated":       []byte("aqua-cellcache-v1 sha2"),
		"empty":           nil,
	}
	for name, raw := range cases {
		if err := os.WriteFile(filepath.Join(dir, "cafef00d"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get("cafef00d"); ok {
			t.Fatalf("%s: Get = %q, true; want a miss", name, got)
		}
		st := s2.Stats()
		// An unreadable-as-entry file counts as corrupt except when the
		// read path never reaches decode (can't happen here: the file
		// exists), so every case lands in Corrupt+Misses.
		if st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats %+v; want 1 corrupt, 1 miss", name, st)
		}
	}
}

// TestNilStore pins the inert zero value: callers hold a possibly-nil
// *Store and must be able to use it without branches.
func TestNilStore(t *testing.T) {
	var s *Store
	s.Put("abc", []byte("x")) // must not panic
	if _, ok := s.Get("abc"); ok {
		t.Fatal("nil store reported a hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats %+v; want zero", st)
	}
}

// TestInvalidKeys pins the path-safety gate: keys that could escape the
// directory or collide with temp files are dropped on Put and miss on
// Get, without touching the filesystem.
func TestInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"../escape",
		"a/b",
		"a.b",
		"tmp key",
		strings.Repeat("a", 129),
	}
	for _, key := range bad {
		s.Put(key, []byte("x"))
		if _, ok := s.Get(key); ok {
			t.Fatalf("invalid key %q served a value", key)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("invalid keys created %d files in the cache dir", len(entries))
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("stats %+v; invalid puts were counted", st)
	}
}

// TestNoTempLeftovers pins the atomic-write discipline: after a batch of
// Puts the directory holds exactly the named entries, no tmp-* residue.
func TestNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k1", "k2", "k3"}
	for _, k := range keys {
		s.Put(k, []byte("v-"+k))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("dir holds %d files, want %d", len(entries), len(keys))
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestCrashMidWrite models a writer killed mid-Put: an orphaned temp
// file that never reached its rename, and a torn entry whose payload
// was cut short. A fresh store over the directory reads the torn entry
// as a corrupt miss, never as a hit, and a recomputed Put lands
// atomically over it.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tmp-crash123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	full := encodeEntry([]byte("the full payload bytes"))
	if err := os.WriteFile(filepath.Join(dir, "cellX"), full[:len(full)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("cellX"); ok {
		t.Fatalf("torn entry served as a hit: %q", v)
	}
	if v, ok := s.Get("tmp-crash123"); ok {
		t.Fatalf("orphaned temp file served as an entry: %q", v)
	}
	if st := s.Stats(); st.Corrupt != 2 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want the torn entry and the orphan counted corrupt", st)
	}
	s.Put("cellX", []byte("recomputed"))
	fresh, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get("cellX"); !ok || string(v) != "recomputed" {
		t.Fatalf("recomputed entry not served: %q, %v", v, ok)
	}
}

// TestOverwriteSameKey pins last-write-wins for a key: re-Put replaces
// the entry for the writing store and for a fresh one.
func TestOverwriteSameKey(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("one"))
	s.Put("k", []byte("two"))
	if got, _ := s.Get("k"); string(got) != "two" {
		t.Fatalf("writing store = %q, want two", got)
	}
	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get("k"); string(got) != "two" {
		t.Fatalf("fresh store = %q, want two", got)
	}
}

// TestEncodeDecodeRoundTrip pins the framing against itself, including
// the empty payload.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0, 255, '\n'}, 1000)} {
		got, ok := decodeEntry(encodeEntry(payload))
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes failed (ok=%v)", len(payload), ok)
		}
	}
}
