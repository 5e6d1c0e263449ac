package cluster

import (
	"math/rand"
	"testing"
)

// IsFree reports whether the node is free.
func (s *NodeSet) IsFree(id int) bool {
	if id < 0 || id >= s.total {
		return false
	}
	return s.words[id/64]&(1<<(id%64)) != 0
}

func TestNodeSetAllocLowestFirst(t *testing.T) {
	s := NewNodeSet(8)
	ids, err := s.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Errorf("ids = %v, want [0 1 2]", ids)
	}
	if s.Free() != 5 {
		t.Errorf("Free = %d, want 5", s.Free())
	}
	// Release the middle node and re-alloc: lowest free is 1.
	if err := s.Release([]int{1}); err != nil {
		t.Fatal(err)
	}
	ids, err = s.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 1 || ids[1] != 3 {
		t.Errorf("ids = %v, want [1 3]", ids)
	}
}

func TestNodeSetExhaustion(t *testing.T) {
	s := NewNodeSet(4)
	if _, err := s.Alloc(5); err == nil {
		t.Error("over-allocation accepted")
	}
	if _, err := s.Alloc(0); err == nil {
		t.Error("zero allocation accepted")
	}
	ids, _ := s.Alloc(4)
	if s.Free() != 0 {
		t.Fatalf("Free = %d", s.Free())
	}
	if _, err := s.Alloc(1); err == nil {
		t.Error("allocation from empty set accepted")
	}
	if err := s.Release(ids); err != nil {
		t.Fatal(err)
	}
	if s.Free() != 4 {
		t.Errorf("Free = %d after full release", s.Free())
	}
}

func TestNodeSetDoubleReleaseAndBounds(t *testing.T) {
	s := NewNodeSet(4)
	ids, _ := s.Alloc(2)
	if err := s.Release(ids); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(ids); err == nil {
		t.Error("double release accepted")
	}
	if err := s.Release([]int{-1}); err == nil {
		t.Error("negative node accepted")
	}
	if err := s.Release([]int{4}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestNodeSetLargeMachineCrossesWords(t *testing.T) {
	s := NewNodeSet(128)
	a, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(28)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range append(a, b...) {
		if id < 0 || id >= 128 {
			t.Fatalf("node %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("node %d allocated twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 128 || s.Free() != 0 {
		t.Errorf("allocated %d nodes, free %d", len(seen), s.Free())
	}
}

func TestNodeSetRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewNodeSet(77)
	var held [][]int
	heldCount := 0
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 && s.Free() > 0 {
			k := 1 + rng.Intn(s.Free())
			ids, err := s.Alloc(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if s.IsFree(id) {
					t.Fatalf("allocated node %d still free", id)
				}
			}
			held = append(held, ids)
			heldCount += k
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			if err := s.Release(held[i]); err != nil {
				t.Fatal(err)
			}
			heldCount -= len(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		if s.Free() != 77-heldCount {
			t.Fatalf("step %d: Free = %d, want %d", step, s.Free(), 77-heldCount)
		}
	}
}

func TestNodeSetPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNodeSet(0) did not panic")
		}
	}()
	NewNodeSet(0)
}
