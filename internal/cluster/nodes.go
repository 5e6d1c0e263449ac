package cluster

import (
	"fmt"
	"math/bits"
)

// NodeSet tracks the allocation state of the machine's concrete nodes.
// The availability profile answers "how many nodes, when"; the NodeSet
// answers "which nodes" at dispatch time, the way a resource manager
// hands node lists to job launchers. Allocation is lowest-numbered-
// first, which is deterministic and matches common resource managers
// on switched (non-torus) clusters where placement does not matter.
type NodeSet struct {
	words []uint64 // bit set; 1 = free
	total int
	free  int
}

// NewNodeSet returns a set of n nodes (IDs 0..n-1), all free.
func NewNodeSet(n int) *NodeSet {
	if n < 1 {
		panic("cluster: NewNodeSet needs at least one node")
	}
	s := &NodeSet{words: make([]uint64, (n+63)/64), total: n, free: n}
	for i := 0; i < n; i++ {
		s.words[i/64] |= 1 << (i % 64)
	}
	return s
}

// Total returns the machine size.
func (s *NodeSet) Total() int { return s.total }

// Free returns the number of free nodes.
func (s *NodeSet) Free() int { return s.free }

// Alloc claims the k lowest-numbered free nodes and returns their IDs.
func (s *NodeSet) Alloc(k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: Alloc(%d)", k)
	}
	if k > s.free {
		return nil, fmt.Errorf("cluster: Alloc(%d) with %d free", k, s.free)
	}
	ids := make([]int, 0, k)
	for w := range s.words {
		word := s.words[w]
		for word != 0 && len(ids) < k {
			bit := word & (-word) // lowest set bit
			idx := bits.TrailingZeros64(bit)
			id := w*64 + idx
			ids = append(ids, id)
			word &^= bit
			s.words[w] &^= bit
		}
		if len(ids) == k {
			break
		}
	}
	s.free -= k
	return ids, nil
}

// Claim allocates exactly the given nodes. Restoring a compacted
// checkpoint must put every running job back onto its recorded nodes —
// lowest-first Alloc would renumber them — so Claim validates that each
// requested node is free, then takes all of them atomically: on error
// nothing is claimed.
func (s *NodeSet) Claim(ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= s.total {
			return fmt.Errorf("cluster: Claim of invalid node %d", id)
		}
		if s.words[id/64]&(1<<(id%64)) == 0 {
			return fmt.Errorf("cluster: Claim of allocated node %d", id)
		}
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("cluster: Claim of node %d twice", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		s.words[id/64] &^= 1 << (id % 64)
	}
	s.free -= len(ids)
	return nil
}

// Release frees previously allocated nodes. Releasing a node that is
// already free or out of range is an error (a double-free bug in the
// caller).
func (s *NodeSet) Release(ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= s.total {
			return fmt.Errorf("cluster: Release of invalid node %d", id)
		}
		mask := uint64(1) << (id % 64)
		if s.words[id/64]&mask != 0 {
			return fmt.Errorf("cluster: double release of node %d", id)
		}
		s.words[id/64] |= mask
	}
	s.free += len(ids)
	return nil
}
