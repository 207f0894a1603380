// The netlist registry: a content-addressed, LRU-bounded store of
// parsed circuits. Clients upload (or first reference) a netlist
// once; every later request names it by its canonical SHA-256 digest
// (netlist.Digest) via "netlist_ref" and skips parsing entirely.
// Named benchmark profiles and inline .bench bodies are interned
// through the same store under alias keys, so a hot circuit is
// generated or parsed exactly once no matter how it is spelled.
package service

import (
	"slices"
	"sync"

	"repro/internal/netlist"
)

// DefaultRegistrySize is the registry's default LRU capacity in
// circuits.
const DefaultRegistrySize = 256

// netRegistry is the digest → circuit LRU plus the alias map. All
// methods are safe for concurrent use. onEvict runs outside the lock
// after each eviction so dependents (the delta session cache) can
// invalidate state tied to the digest without lock-ordering
// constraints.
type netRegistry struct {
	reg     *registry
	onEvict func(digest string)

	mu      sync.Mutex
	lru     *lru[string, *netlist.Circuit] // by digest, size 1 each
	byAlias map[string]string              // alias → digest of a stored circuit
}

func newNetRegistry(max int, reg *registry, onEvict func(string)) *netRegistry {
	if max <= 0 {
		max = DefaultRegistrySize
	}
	return &netRegistry{
		reg:     reg,
		onEvict: onEvict,
		lru:     newLRU[string, *netlist.Circuit](int64(max)),
		byAlias: make(map[string]string),
	}
}

// get returns the circuit registered under digest, refreshing its LRU
// position.
func (r *netRegistry) get(digest string) (*netlist.Circuit, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.get(digest)
}

// intern resolves an alias ("profile:s208", "bench:<sha256>") to its
// registered circuit and digest. On a miss it builds the circuit
// outside the lock, registers it under its digest (netlist.Digest)
// and the alias, and evicts least-recently-used circuits beyond the
// capacity, with the aliases that point at them. Registering an
// existing digest only refreshes it and adds the alias; the stored
// circuit wins, so concurrent duplicate builds converge on one shared
// *Circuit.
func (r *netRegistry) intern(alias string, build func() (*netlist.Circuit, error)) (*netlist.Circuit, string, error) {
	r.mu.Lock()
	if digest, ok := r.byAlias[alias]; ok {
		if c, ok := r.lru.get(digest); ok {
			r.mu.Unlock()
			return c, digest, nil
		}
	}
	r.mu.Unlock()
	c, err := build()
	if err != nil {
		return nil, "", err
	}
	digest := netlist.Digest(c, nil)

	r.mu.Lock()
	r.byAlias[alias] = digest
	var evicted []string
	if stored, ok := r.lru.get(digest); ok {
		c = stored
	} else {
		evicted = r.lru.put(digest, c, 1)
		for a, d := range r.byAlias {
			if slices.Contains(evicted, d) {
				delete(r.byAlias, a)
			}
		}
		r.reg.registryEntries.Store(int64(r.lru.len()))
		r.reg.registryEvictions.Add(int64(len(evicted)))
	}
	r.mu.Unlock()
	for _, d := range evicted {
		r.onEvict(d)
	}
	return c, digest, nil
}

// len returns the number of registered circuits.
func (r *netRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.len()
}
