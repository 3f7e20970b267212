// Package cluster is the fleet layer over cohortd: a consistent-hash ring
// that assigns tenant keys to shards, a catalog that health-probes the fleet
// and ejects dying or draining shards, a wire-protocol gateway that answers
// each Open with a Redirect to its tenant's shards, and fleet-level
// aggregation of the per-shard observability planes.
//
// The design splits routing *policy* from routing *mechanism*. Policy is the
// ring: a pure, deterministic function from the current healthy shard set to
// a key→shard map, cheap enough to rebuild on every membership change. The
// gateway applies it once per Open and names the candidates; the mechanism
// is the client's, which opens at the first candidate that admits the
// session and talks to that shard alone. The gateway is the control plane
// and stays off the data path.
//
// Nothing migrates between shards. A session lives and dies on the shard
// that admitted it; failover means the *client* replays its residual input
// on a new session routed to a survivor — the same reconnect contract the
// wire protocol's typed errors already gave single-daemon clients.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// DefaultVNodes is the virtual-node count per shard when a Ring or Catalog
// is built with vnodes <= 0. 128 points per shard keeps the expected load
// imbalance across a small fleet within a few percent while a full rebuild
// stays microseconds.
const DefaultVNodes = 128

// fnv1a is FNV-1a over the key bytes with a murmur-style finalizer — an
// allocation-free, dependency-free 64-bit hash. The ring needs speed and
// determinism, not cryptographic strength: the same shard names must always
// produce the same ring, on every node of the fleet and in every client,
// forever.
//
// The finalizer is load-bearing. Raw FNV-1a barely avalanches its last
// byte: keys differing only in the final character ("load-0".."load-9", the
// natural shape of tenant names) end up within a few multiples of the FNV
// prime of each other — a vanishing arc of the 2^64 circle, all owned by
// one virtual node, i.e. every tenant on one shard. fmix64 spreads that
// cluster across the whole circle.
func fnv1a(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
	}
	return fmix64(h)
}

// fmix64 is MurmurHash3's 64-bit finalization mix: full avalanche, so a
// one-bit input change flips each output bit with ~1/2 probability.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node: a position on the hash circle and the index of
// the shard that owns the arc ending there.
type point struct {
	hash  uint64
	shard int32
}

// Ring is an immutable consistent-hash ring over a set of shard names. Each
// shard projects vnodes points onto a 64-bit hash circle; a key belongs to
// the shard owning the first point at or after the key's hash (wrapping).
// Because points are a pure function of shard names, two rings built from
// the same membership are identical — there is no seed, no insertion-order
// dependence, and no state to gossip beyond the member list itself.
//
// Membership changes are handled by building a new Ring: removing a shard
// deletes only that shard's points, so only the keys in its arcs remap (the
// ~K/N consistent-hashing guarantee); every other key keeps its owner.
type Ring struct {
	shards []string // sorted, deduplicated
	points []point  // sorted by hash
}

// NewRing builds a ring over shards (deduplicated; order irrelevant) with
// the given virtual-node count per shard (<= 0 means DefaultVNodes). An
// empty shard set yields a ring whose lookups return nothing.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]struct{}, len(shards))
	for _, s := range shards {
		if _, ok := seen[s]; ok || s == "" {
			continue
		}
		seen[s] = struct{}{}
		uniq = append(uniq, s)
	}
	sort.Strings(uniq)
	r := &Ring{shards: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for si, name := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:  fnv1a(name, "#", strconv.Itoa(v)),
				shard: int32(si),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring
		// stays a pure function of membership.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// find returns the index of the first point at or after h, wrapping to 0.
func (r *Ring) find(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// LookupN returns up to n distinct shards for key in failover order: the
// owner first, then the next distinct shards walking clockwise from the
// key's position. Routing tiers try these in order when the owner is down
// or refuses (draining, admission-full), which keeps a key's failover
// target as stable as its owner.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	start := r.find(fnv1a(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		if name := r.shards[r.points[(start+i)%len(r.points)].shard]; !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

// RingSnapshot is the serialized routing state served on /ring, the
// operator's view of placement: the ring's parameters and every shard with
// its live state, from which the gateway's routes can be recomputed.
// Version increments on every catalog rebuild so pollers can cheap-check
// for membership changes.
type RingSnapshot struct {
	Version uint64      `json:"version"`
	VNodes  int         `json:"vnodes"`
	Shards  []ShardInfo `json:"shards"`
}

// ShardInfo is one shard's row in a RingSnapshot (/ring document).
type ShardInfo struct {
	Name string `json:"name"`
	// Addr is the shard's wire-protocol address.
	Addr string `json:"addr"`
	// HTTP is the shard's observability address ("" if unknown).
	HTTP string `json:"http,omitempty"`
	// State is "healthy", "draining" or "down". Only healthy shards are
	// ring members; the others are listed so operators see the whole fleet.
	State string `json:"state"`
	// Err is the last probe failure for a down shard.
	Err string `json:"err,omitempty"`
}

// ParseShards parses a -shards flag value: comma-separated entries of the
// form "wireaddr@httpaddr" or "name=wireaddr@httpaddr" (the @httpaddr part
// optional — a shard without an observability address is never probed
// healthy, so in practice every entry should carry one).
func ParseShards(spec string) ([]Shard, error) {
	var out []Shard
	for _, entry := range strings.Split(spec, ",") {
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			name, rest = "", entry
		}
		addr, httpAddr, _ := strings.Cut(rest, "@")
		if addr == "" {
			return nil, fmt.Errorf("cluster: shard entry %q has no wire address", entry)
		}
		if name == "" {
			name = addr
		}
		out = append(out, Shard{Name: name, Addr: addr, HTTP: httpAddr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no shards in %q", spec)
	}
	return out, nil
}
