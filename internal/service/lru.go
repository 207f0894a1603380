package service

// lru is the least-recently-used order of the service's three bounded
// stores: the result cache bounds bytes, the delta sessions and the
// netlist registry bound entries (size 1 each). It evicts from the
// tail until the summed size is within the bound and hands the
// evicted keys back. It knows nothing of metrics or locks: each
// store holds its own mutex around it and counts what it returns.
type lru[K, V comparable] struct {
	bound, sum int64
	nodes      map[K]*lruNode[K, V]
	// root is the sentinel of a ring: root.next is the most recently
	// used entry, root.prev the least.
	root lruNode[K, V]
}

type lruNode[K, V comparable] struct {
	key        K
	val        V
	size       int64
	prev, next *lruNode[K, V]
}

func newLRU[K, V comparable](bound int64) *lru[K, V] {
	l := &lru[K, V]{bound: bound, nodes: make(map[K]*lruNode[K, V])}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// get returns key's value and marks it most recently used.
func (l *lru[K, V]) get(key K) (val V, ok bool) {
	n, ok := l.nodes[key]
	if ok {
		l.toFront(n)
		val = n.val
	}
	return val, ok
}

// put stores val under key as the most recently used entry, replacing
// the entry key had (which is not an eviction), and evicts until the
// total is within the bound. An entry larger than the bound on its own
// is evicted too.
func (l *lru[K, V]) put(key K, val V, size int64) (evicted []K) {
	l.remove(key)
	n := &lruNode[K, V]{key: key, val: val, size: size}
	l.nodes[key] = n
	l.toFront(n)
	l.sum += size
	return l.evict(nil)
}

// grow adds by to the size of key's entry if key still holds val, and
// evicts until the total is within the bound, sparing that entry.
func (l *lru[K, V]) grow(key K, val V, by int64) (evicted []K) {
	n, ok := l.nodes[key]
	if !ok || n.val != val {
		return nil
	}
	n.size += by
	l.sum += by
	return l.evict(n)
}

// remove deletes key's entry, if any.
func (l *lru[K, V]) remove(key K) {
	if n, ok := l.nodes[key]; ok {
		l.drop(n)
	}
}

// each calls f on every entry, most recently used first, without
// changing the order. f may remove the entry it is given.
func (l *lru[K, V]) each(f func(key K, val V, size int64)) {
	for n := l.root.next; n != &l.root; {
		next := n.next
		f(n.key, n.val, n.size)
		n = next
	}
}

// len returns the number of entries; total their summed size.
func (l *lru[K, V]) len() int     { return len(l.nodes) }
func (l *lru[K, V]) total() int64 { return l.sum }

func (l *lru[K, V]) evict(spare *lruNode[K, V]) (evicted []K) {
	for n := l.root.prev; n != &l.root && l.sum > l.bound; {
		prev := n.prev
		if n != spare {
			l.drop(n)
			evicted = append(evicted, n.key)
		}
		n = prev
	}
	return evicted
}

func (l *lru[K, V]) drop(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	delete(l.nodes, n.key)
	l.sum -= n.size
}

// toFront makes n the most recently used entry, unlinking it first if
// it is linked.
func (l *lru[K, V]) toFront(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}
