package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// CounterSet is a named collection of counters, used for per-node message
// accounting (paper Table 1). Safe for concurrent use, including first-use
// registration (the live UDP path can race Get from the read, tick, and
// app goroutines): lookups go through an atomic copy-on-write map, so the
// hot path is one atomic load; registration of a new name takes a mutex
// and publishes a fresh map.
type CounterSet struct {
	m  atomic.Pointer[map[string]*Counter]
	mu sync.Mutex // serializes registration; guards names
	// names preserves registration order (Names sorts a copy).
	names []string
	// help holds the optional one-line descriptions set by Describe.
	help map[string]string
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	cs := &CounterSet{}
	m := make(map[string]*Counter)
	cs.m.Store(&m)
	return cs
}

// Get returns the counter with the given name, creating it on first use.
func (cs *CounterSet) Get(name string) *Counter {
	if c, ok := (*cs.m.Load())[name]; ok {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	old := *cs.m.Load()
	if c, ok := old[name]; ok { // lost the registration race
		return c
	}
	next := make(map[string]*Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	c := &Counter{}
	next[name] = c
	cs.m.Store(&next)
	cs.names = append(cs.names, name)
	return c
}

// Describe registers name (so it is exported even while zero) with a
// one-line help text, rendered as the metric's # HELP line on /metrics.
func (cs *CounterSet) Describe(name, help string) *Counter {
	c := cs.Get(name)
	cs.mu.Lock()
	if cs.help == nil {
		cs.help = make(map[string]string)
	}
	cs.help[name] = help
	cs.mu.Unlock()
	return c
}

// Help returns the text Describe registered for name ("" if none).
func (cs *CounterSet) Help(name string) string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.help[name]
}

// Value returns the current value of the named counter (0 if absent).
func (cs *CounterSet) Value(name string) uint64 {
	if c, ok := (*cs.m.Load())[name]; ok {
		return c.Load()
	}
	return 0
}

// Names returns the registered counter names, sorted.
func (cs *CounterSet) Names() []string {
	cs.mu.Lock()
	out := make([]string, len(cs.names))
	copy(out, cs.names)
	cs.mu.Unlock()
	sort.Strings(out)
	return out
}

// ResetAll zeroes every counter in the set.
func (cs *CounterSet) ResetAll() {
	for _, c := range *cs.m.Load() {
		c.Reset()
	}
}

// Snapshot returns name→value for all counters.
func (cs *CounterSet) Snapshot() map[string]uint64 {
	m := *cs.m.Load()
	out := make(map[string]uint64, len(m))
	for n, c := range m {
		out[n] = c.Load()
	}
	return out
}

// String renders the counters as "name=value" pairs, sorted by name.
func (cs *CounterSet) String() string {
	names := cs.Names()
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, cs.Value(n)))
	}
	return strings.Join(parts, " ")
}
