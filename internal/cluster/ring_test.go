package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// owner returns the shard owning key, or "" on an empty ring.
func owner(r *Ring, key string) string {
	if c := r.LookupN(key, 1); len(c) == 1 {
		return c[0]
	}
	return ""
}

// keys returns n deterministic tenant-like keys.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%d", i)
	}
	return out
}

// TestRingDeterministic: the ring is a pure function of membership — same
// shards (in any order) produce identical routing, across builds and
// processes. The /ring view depends on this: an operator rebuilding the
// ring from a snapshot must compute the gateway's exact routes.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"s0", "s1", "s2"}, 64)
	b := NewRing([]string{"s2", "s0", "s1"}, 64) // same members, different order
	for _, k := range keys(500) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("key %q routes differently on identical memberships: %q vs %q",
				k, owner(a, k), owner(b, k))
		}
		if !reflect.DeepEqual(a.LookupN(k, 2), b.LookupN(k, 2)) {
			t.Fatalf("key %q failover candidates differ on identical memberships", k)
		}
	}
}

// TestRingRemovalRemapsOnlyVictimKeys: removing one shard moves exactly the
// keys it owned (~K/N of them) and not one key more — the consistent-hashing
// contract that makes shard failure a local event.
func TestRingRemovalRemapsOnlyVictimKeys(t *testing.T) {
	const n = 4
	shards := []string{"s0", "s1", "s2", "s3"}
	full := NewRing(shards, 128)
	without := NewRing(shards[:n-1], 128) // s3 removed

	const K = 2000
	moved := 0
	for _, k := range keys(K) {
		before, after := owner(full, k), owner(without, k)
		if before == "s3" {
			moved++
			if after == "s3" {
				t.Fatalf("key %q still routes to the removed shard", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %q moved from %q to %q though its shard was not removed",
				k, before, after)
		}
	}
	// The removed shard should have owned roughly K/n keys. The hash is
	// deterministic, so this is a fixed property of the ring, not a flaky
	// statistical bound — the loose window only tolerates hash unevenness.
	lo, hi := K/n/2, K/n*2
	if moved < lo || moved > hi {
		t.Fatalf("removal remapped %d of %d keys, want roughly K/N (%d..%d)", moved, K, lo, hi)
	}
}

// TestRingAdditionMovesKeysOnlyToNewShard: adding a shard steals keys for
// itself and disturbs nothing else.
func TestRingAdditionMovesKeysOnlyToNewShard(t *testing.T) {
	base := NewRing([]string{"s0", "s1", "s2"}, 128)
	grown := NewRing([]string{"s0", "s1", "s2", "s9"}, 128)
	gained := 0
	for _, k := range keys(2000) {
		before, after := owner(base, k), owner(grown, k)
		if before == after {
			continue
		}
		if after != "s9" {
			t.Fatalf("key %q moved %q -> %q; only moves to the new shard are allowed",
				k, before, after)
		}
		gained++
	}
	if gained == 0 {
		t.Fatal("new shard took no keys")
	}
}

// TestLookupNFailoverOrder: candidates are distinct, owner-first, and the
// second candidate is exactly where the key lands once the owner is removed
// — so a routing tier's failover target matches the post-ejection ring.
func TestLookupNFailoverOrder(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3"}
	r := NewRing(shards, 128)
	for _, k := range keys(300) {
		cands := r.LookupN(k, 3)
		if len(cands) != 3 {
			t.Fatalf("LookupN(%q, 3) returned %d candidates", k, len(cands))
		}
		if cands[0] != owner(r, k) {
			t.Fatalf("key %q: first candidate %q is not the owner %q", k, cands[0], owner(r, k))
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("key %q: duplicate candidate %q", k, c)
			}
			seen[c] = true
		}
		// Eject the owner: the key must land on the second candidate.
		rest := make([]string, 0, len(shards)-1)
		for _, s := range shards {
			if s != cands[0] {
				rest = append(rest, s)
			}
		}
		if got := owner(NewRing(rest, 128), k); got != cands[1] {
			t.Fatalf("key %q: post-ejection owner %q != second candidate %q", k, got, cands[1])
		}
	}
}

// TestRingEdgeCases: empty and single-shard rings, candidate clamping,
// duplicate members.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 16)
	if got := owner(empty, "k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
	if got := empty.LookupN("k", 2); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	one := NewRing([]string{"only", "only", ""}, 16) // dup and empty dropped
	if got := one.LookupN("anything", 2); !reflect.DeepEqual(got, []string{"only"}) {
		t.Fatalf("single-shard ring misroutes: %v", got)
	}
	if got := one.LookupN("k", 5); len(got) != 1 {
		t.Fatalf("LookupN over-asks: %v", got)
	}
}

// TestRingSpreadsSuffixVaryingKeys: tenant names in the wild differ only in
// a trailing counter ("load-0".."load-9"). Raw FNV-1a clusters such keys on
// a vanishing arc of the circle (the last byte barely avalanches), piling
// every tenant onto one shard; the fmix64 finalizer must spread them. This
// is a regression test — without the finalizer, 16/16 keys landed on one
// shard of two.
func TestRingSpreadsSuffixVaryingKeys(t *testing.T) {
	r := NewRing([]string{"s0", "s1"}, DefaultVNodes)
	counts := map[string]int{}
	const n = 64
	for i := 0; i < n; i++ {
		counts[owner(r, fmt.Sprintf("load-%d", i))]++
	}
	for _, s := range []string{"s0", "s1"} {
		// Deterministic, so this is a fixed property of the hash: each shard
		// must hold a real share, not a token one.
		if counts[s] < n/8 {
			t.Fatalf("shard %s owns only %d of %d suffix-varying keys: %v", s, counts[s], n, counts)
		}
	}
}

// TestSnapshotRouteMatchesCatalogRing: a ring rebuilt from the /ring
// snapshot's healthy members computes the catalog's own routes — the
// operator's view of placement is the placement the gateway redirects by.
func TestSnapshotRouteMatchesCatalogRing(t *testing.T) {
	cat, err := NewCatalog(CatalogConfig{VNodes: 64, Shards: []Shard{
		{Name: "a", Addr: "1:1"}, {Name: "b", Addr: "2:2"},
		{Name: "c", Addr: "3:3"}, {Name: "d", Addr: "4:4"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cat.apply([]probeResult{{state: StateHealthy}, {state: StateDown}, {state: StateHealthy}, {state: StateDraining}})
	sn := cat.Snapshot()
	var healthy []string
	for _, sh := range sn.Shards {
		if sh.State == StateHealthy {
			healthy = append(healthy, sh.Name)
		}
	}
	ring := NewRing(healthy, sn.VNodes)
	for _, k := range keys(200) {
		got := cat.Route(k, 2)
		want := ring.LookupN(k, 2)
		if len(got) != len(want) {
			t.Fatalf("key %q: %d candidates, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i] {
				t.Fatalf("key %q candidate %d: %q, want %q", k, i, got[i].Name, want[i])
			}
		}
	}
}

// TestParseShards covers the -shards flag grammar.
func TestParseShards(t *testing.T) {
	got, err := ParseShards("a=1.2.3.4:7411@1.2.3.4:9122,5.6.7.8:7411@5.6.7.8:9122,bare:7411")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shard{
		{Name: "a", Addr: "1.2.3.4:7411", HTTP: "1.2.3.4:9122"},
		{Name: "5.6.7.8:7411", Addr: "5.6.7.8:7411", HTTP: "5.6.7.8:9122"},
		{Name: "bare:7411", Addr: "bare:7411"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseShards = %+v, want %+v", got, want)
	}
	if _, err := ParseShards(""); err == nil {
		t.Fatal("ParseShards(\"\") succeeded, want error")
	}
	if _, err := ParseShards("name=@http"); err == nil {
		t.Fatal("ParseShards with empty wire address succeeded, want error")
	}
}
