// Package guardedbytest is the guardedby corpus: a store with a
// documented lock discipline, correct and incorrect accessors, a
// constructor, a generic table, and an exported guarded field.
package guardedbytest

import "sync"

// Store mirrors the simulator's cache shapes.
type Store struct {
	mu sync.Mutex
	// mem is the cached payload map.
	mem  map[string]int // guarded by mu
	n    int            // guarded by lock; want `no sync\.Mutex/sync\.RWMutex field named lock`
	Hits int            // guarded by mu; want `guarded field Hits is exported`
}

// RW exercises RLock recognition.
type RW struct {
	mu    sync.RWMutex
	stats map[string]int // guarded by mu
}

// Table mirrors flight.Group: a generic struct whose methods see its
// fields through an instantiation.
type Table[K comparable] struct {
	mu sync.Mutex
	m  map[K]int // guarded by mu
}

// New builds a Store; the value is local, so no locking is required.
func New() *Store {
	s := &Store{}
	s.mem = make(map[string]int)
	return s
}

// Get locks correctly.
func (s *Store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[k]
}

// Bad reads the guarded map without the lock.
func (s *Store) Bad(k string) int {
	return s.mem[k] // want `access to mem \(guarded by mu\) in \(\*Store\)\.Bad`
}

// Snapshot uses a read lock on the RWMutex.
func (r *RW) Snapshot() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.stats))
	for k, v := range r.stats {
		out[k] = v
	}
	return out
}

// Peek reads without any lock.
func (r *RW) Peek(k string) int {
	return r.stats[k] // want `access to stats \(guarded by mu\)`
}

// Put locks correctly.
func (t *Table[K]) Put(k K, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k] = v
}

// Len reads without the lock.
func (t *Table[K]) Len() int {
	return len(t.m) // want `access to m \(guarded by mu\) in \(\*Table\[K\]\)\.Len`
}
