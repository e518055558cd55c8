package raft

import "sync"

// Storage receives persistence callbacks from the Node. Implementations
// must make the data durable before returning if they want the classical
// Raft durability guarantee; the simulator uses MemoryStorage because the
// paper's testbed (like most µs-scale SMR work, cf. §2.3 on NVM) treats
// storage as off the critical path.
type Storage interface {
	// SaveState persists the current term and vote.
	SaveState(term uint64, vote NodeID)
	// AppendEntries persists newly appended entries. Entries may
	// overwrite previously persisted ones at the same indices
	// (log truncation on conflict is expressed as overwrite). The slice
	// may be a view into the log's own storage, valid only for the
	// call: an implementation that keeps entries copies them.
	AppendEntries(entries []Entry)
	// SaveSnapshot persists a snapshot; entries at or below index are
	// no longer needed.
	SaveSnapshot(index, term uint64, data []byte)
}

// GroupCommitter is an optional Storage extension for durability group
// commit. A group-committing storage may stage SaveState/AppendEntries
// records in memory instead of persisting them synchronously; the
// runtime then calls Flush at its durability barriers — before any
// datagram that could acknowledge the staged records leaves the node —
// so everything one loop pass staged is covered by one vectored write
// and one fsync. MaybeFlush is the background latency bound: runtimes
// call it from their timer loop so staged records never outlive the
// configured flush delay even when no traffic forces a barrier.
type GroupCommitter interface {
	// Flush makes every staged record durable before returning.
	Flush()
	// MaybeFlush flushes only if staged records have exceeded the
	// storage's configured age bound (cheap no-op otherwise).
	MaybeFlush()
}

// NopStorage discards everything.
type NopStorage struct{}

// SaveState implements Storage.
func (NopStorage) SaveState(uint64, NodeID) {}

// AppendEntries implements Storage.
func (NopStorage) AppendEntries([]Entry) {}

// SaveSnapshot implements Storage.
func (NopStorage) SaveSnapshot(uint64, uint64, []byte) {}

// MemoryStorage keeps persisted state in memory; useful for tests that
// restart nodes and for inspecting what would have been written.
type MemoryStorage struct {
	mu        sync.Mutex
	Term      uint64
	Vote      NodeID
	Entries   map[uint64]Entry
	SnapIdx   uint64
	SnapTerm  uint64
	SnapBlob  []byte
	StateSave int // number of SaveState calls (fsync count proxy)
}

// NewMemoryStorage returns an empty store.
func NewMemoryStorage() *MemoryStorage {
	return &MemoryStorage{Entries: make(map[uint64]Entry)}
}

// SaveState implements Storage.
func (s *MemoryStorage) SaveState(term uint64, vote NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Term, s.Vote = term, vote
	s.StateSave++
}

// AppendEntries implements Storage.
func (s *MemoryStorage) AppendEntries(entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.Entries[e.Index] = e
	}
}

// SaveSnapshot implements Storage.
func (s *MemoryStorage) SaveSnapshot(index, term uint64, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SnapIdx, s.SnapTerm = index, term
	s.SnapBlob = append([]byte(nil), data...)
	for i := range s.Entries {
		if i <= index {
			delete(s.Entries, i)
		}
	}
}

// EntryCount returns the number of retained persisted entries.
func (s *MemoryStorage) EntryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Entries)
}
