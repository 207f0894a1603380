package service

import (
	"reflect"
	"testing"
)

// TestLRUOrderAndBound pins the shared LRU's contract: get refreshes
// an entry, put evicts from the tail until the total is within the
// bound and returns the victims, a replaced entry is not a victim,
// grow spares the entry it grows (even alone over the bound) and
// ignores a key that no longer holds the value, and each may remove
// the entry it is given.
func TestLRUOrderAndBound(t *testing.T) {
	keys := func(l *lru[string, *int]) []string {
		var out []string
		l.each(func(k string, _ *int, _ int64) { out = append(out, k) })
		return out
	}
	v := func() *int { return new(int) }
	check := func(l *lru[string, *int], want []string, total int64) {
		t.Helper()
		if got := keys(l); !reflect.DeepEqual(got, want) || l.len() != len(want) || l.total() != total {
			t.Fatalf("order %v (len %d, total %d), want %v (total %d)", got, l.len(), l.total(), want, total)
		}
	}

	l := newLRU[string, *int](10)
	a, b, c, a2 := v(), v(), v(), v()
	if l.put("a", a, 4) != nil || l.put("b", b, 4) != nil {
		t.Fatal("a put under the bound evicted")
	}
	l.get("a")
	l.get("b")
	l.get("a")
	check(l, []string{"a", "b"}, 8)
	if ev := l.put("c", c, 4); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("put c evicted %v, want [b]", ev)
	}
	check(l, []string{"c", "a"}, 8)
	if ev := l.put("a", a2, 6); ev != nil {
		t.Fatalf("replacing a evicted %v", ev)
	}
	check(l, []string{"a", "c"}, 10)

	if ev := l.grow("c", a, 5); ev != nil || l.total() != 10 {
		t.Fatalf("grow of a stale value: evicted %v, total %d", ev, l.total())
	}
	if ev := l.grow("c", c, 20); len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("grow of c evicted %v, want [a]", ev)
	}
	check(l, []string{"c"}, 24)
	if ev := l.put("d", v(), 1); len(ev) != 1 || ev[0] != "c" {
		t.Fatalf("put d over a grown c evicted %v, want [c]", ev)
	}
	if ev := l.put("big", v(), 11); len(ev) != 2 {
		t.Fatalf("an entry over the bound on its own evicted %d entries, want 2 (d and itself)", len(ev))
	}
	check(l, nil, 0)

	for _, k := range []string{"x", "y", "z"} {
		l.put(k, v(), 1)
	}
	l.each(func(k string, _ *int, _ int64) {
		if k != "y" {
			l.remove(k)
		}
	})
	check(l, []string{"y"}, 1)
	if _, ok := l.get("x"); ok {
		t.Fatal("removed x still found")
	}
}
