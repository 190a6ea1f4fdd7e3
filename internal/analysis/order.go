package analysis

import "slices"

// Has reports whether the ascending address slice set contains addr,
// by one binary search: the membership test for queries in any order
// (Cursor serves ascending ones).
func Has(set []uint64, addr uint64) bool {
	_, ok := slices.BinarySearch(set, addr)
	return ok
}

// Cursor answers membership in one ascending address set for
// non-decreasing queries: a merge walk whose position only moves
// forward, so n queries against a set of m addresses cost O(n+m)
// instead of Has's n binary searches.
type Cursor struct{ set []uint64 }

// NewCursor returns a Cursor at the start of the ascending set.
func NewCursor(set []uint64) Cursor { return Cursor{set} }

// Has reports whether addr is in the set. addr must be no smaller than
// the previous query.
func (c *Cursor) Has(addr uint64) bool {
	for len(c.set) > 0 && c.set[0] < addr {
		c.set = c.set[1:]
	}
	return len(c.set) > 0 && c.set[0] == addr
}

// sortKeys sorts keys ascending and is stable: equal keys keep their
// relative order. vals is nil or as long as keys, and vals[i] travels
// with keys[i]. It is one LSD byte radix sort that skips every byte
// position on which all keys agree — for addresses inside one text
// section that is all but the low two or three bytes — so it runs in a
// few linear passes instead of n log n comparisons. The landing-pad set
// and an FDE index over out-of-order FDEs go through it; the sweep's
// sets C and J need no sort at all (Sweep.DeriveSets).
func sortKeys(keys []uint64, vals []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var differ uint64 // bit set where some key differs from keys[0]
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	origK, origV := keys, vals
	var tmpK []uint64
	var tmpV []int32
	for shift := uint(0); shift < 64; shift += 8 {
		if differ>>shift&0xFF == 0 {
			continue
		}
		if tmpK == nil {
			tmpK = make([]uint64, n)
			if vals != nil {
				tmpV = make([]int32, n)
			}
		}
		var pos [256]int
		for _, k := range keys {
			pos[byte(k>>shift)]++
		}
		sum := 0
		for b, c := range pos {
			pos[b] = sum
			sum += c
		}
		if vals == nil {
			for _, k := range keys {
				b := byte(k >> shift)
				tmpK[pos[b]] = k
				pos[b]++
			}
		} else {
			for i, k := range keys {
				b := byte(k >> shift)
				tmpK[pos[b]], tmpV[pos[b]] = k, vals[i]
				pos[b]++
			}
		}
		keys, tmpK = tmpK, keys
		vals, tmpV = tmpV, vals
	}
	// An odd number of passes leaves the result in the scratch buffers.
	if &keys[0] != &origK[0] {
		copy(origK, keys)
		copy(origV, vals)
	}
}

// sortCompact sorts s in place and drops duplicates.
func sortCompact(s []uint64) []uint64 {
	sortKeys(s, nil)
	return slices.Compact(s)
}
