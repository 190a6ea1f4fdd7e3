// Package ring is a consistent-hash ring: the routing layer that lets
// N funseekerd replicas shard the content-hash key space so each
// binary's result lives (hot in the LRU, warm in the persistent store)
// on one owner replica instead of being recomputed everywhere.
//
// The classic construction: each node is hashed onto the unit circle at
// many virtual points, and a key is owned by the first node point at or
// after the key's own hash. Adding or removing one node therefore
// remaps only the keys in the arcs that node owned — about 1/N of the
// space — which is exactly the property a warm cache tier needs: a
// replica restart or a fleet resize must not shuffle every key onto a
// cold owner. The ±fair-share balance and the minimal-disruption
// invariant are pinned by property tests in ring_test.go.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-node point count when New is given a
// non-positive value. At v points per node the relative standard
// deviation of a node's share is roughly 1/sqrt(v); 512 keeps every
// node within a few percent of fair share even on small fleets.
const DefaultVirtualNodes = 512

// Ring is a consistent-hash ring over named nodes. It is safe for
// concurrent use; lookups take a read lock only.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]bool
	points []point // sorted by hash, ascending
}

// point is one virtual node position.
type point struct {
	hash uint64
	node string
}

// New returns an empty ring with the given virtual-node count per node
// (non-positive selects DefaultVirtualNodes).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hashKey positions a key on the circle. SHA-256 (truncated to 64
// bits) rather than a fast non-cryptographic hash: placement must be
// uniform — vnode clustering directly becomes load skew — and identical
// across processes, so every router instance agrees on every owner.
// The cost is irrelevant next to the content SHA-256 the engine already
// computes per request.
func hashKey(key []byte) uint64 {
	sum := sha256.Sum256(key)
	return binary.LittleEndian.Uint64(sum[:8])
}

// pointHash positions one virtual node: the node name plus the vnode
// index, hashed together. Deterministic, so the same membership always
// produces the same ring.
func pointHash(node string, i int) uint64 {
	buf := make([]byte, 0, len(node)+5)
	buf = append(buf, node...)
	buf = append(buf, '#')
	buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
	sum := sha256.Sum256(buf)
	return binary.LittleEndian.Uint64(sum[:8])
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a node (idempotent). Only that node's points leave the
// circle, so only its keys remap — the minimal-disruption invariant.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the node that owns key, or false on an empty ring.
func (r *Ring) Lookup(key []byte) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.successor(hashKey(key))].node, true
}

// LookupN returns up to n distinct nodes in ring order starting at
// key's owner — the owner first, then the natural failover successors.
// Fewer than n nodes are returned when the ring has fewer members.
func (r *Ring) LookupN(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.successor(hashKey(key))
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// successor returns the index of the first point at or after h,
// wrapping past the top of the circle. Callers hold at least a read
// lock.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
