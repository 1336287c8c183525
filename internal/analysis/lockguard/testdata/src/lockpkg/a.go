// Package lockpkg exercises the guarded-field annotation convention.
package lockpkg

import "sync"

type Store struct {
	mu sync.RWMutex
	// count is the running total.
	// guarded by mu
	count int

	statsMu sync.Mutex
	stats   []int // guarded by statsMu

	free int // unannotated fields are never checked
}

func (s *Store) Add(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count += n
}

func (s *Store) Read() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

func (s *Store) addLocked(n int) {
	s.count += n
}

func (s *Store) Racy() int {
	return s.count // want `field count is guarded by mu, but Racy neither locks mu nor is named \*Locked`
}

func (s *Store) WrongLock() {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.count++ // want `field count is guarded by mu`
	s.stats = append(s.stats, s.free)
}

func (s *Store) ClosureLock() {
	fn := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.count++
	}
	fn()
}

func (s *Store) TryRead() (int, bool) {
	if !s.mu.TryRLock() {
		return 0, false
	}
	defer s.mu.RUnlock()
	return s.count, true
}
