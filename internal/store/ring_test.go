package store

import (
	"slices"
	"testing"
)

// TestRingMatchesOracle pushes past every wrap point of rings of capacity
// 0, 1, 2 and 64 and checks, after each push, that the ring reads exactly
// like the oracle "append, then keep the last k": its values oldest first
// by At and AppendTo, its newest value, and its push and eviction counts.
func TestRingMatchesOracle(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 64} {
		r := NewRing[int](capacity)
		var all []int
		pushes := 4*capacity + 3
		if capacity == 0 {
			pushes = 300
		}
		for v := range pushes {
			r.Push(v)
			all = append(all, v)
			want := all
			if capacity > 0 && len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			if got := r.AppendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("cap %d after %d pushes: AppendTo = %v, want %v", capacity, v+1, got, want)
			}
			if r.Len() != len(want) {
				t.Fatalf("cap %d after %d pushes: Len = %d, want %d", capacity, v+1, r.Len(), len(want))
			}
			for i, w := range want {
				if got := r.At(i); got != w {
					t.Fatalf("cap %d after %d pushes: At(%d) = %d, want %d", capacity, v+1, i, got, w)
				}
			}
			if r.Last() != v {
				t.Fatalf("cap %d after %d pushes: Last = %d, want %d", capacity, v+1, r.Last(), v)
			}
			if r.Total() != len(all) || r.Evicted() != len(all)-len(want) {
				t.Fatalf("cap %d after %d pushes: Total %d Evicted %d, want %d and %d",
					capacity, v+1, r.Total(), r.Evicted(), len(all), len(all)-len(want))
			}
		}
	}
}

// TestRingAppendTo: an empty ring leaves a nil destination nil, and
// AppendTo appends after what dst already holds.
func TestRingAppendTo(t *testing.T) {
	var r Ring[int]
	if got := r.AppendTo(nil); got != nil {
		t.Fatalf("empty ring: AppendTo(nil) = %#v, want nil", got)
	}
	r = NewRing[int](2)
	for v := range 3 {
		r.Push(v)
	}
	if got := r.AppendTo([]int{9}); !slices.Equal(got, []int{9, 1, 2}) {
		t.Fatalf("AppendTo([9]) = %v, want [9 1 2]", got)
	}
	r = NewRing[int](-3)
	for v := range 100 {
		r.Push(v)
	}
	if r.Len() != 100 {
		t.Fatalf("NewRing(-3) kept %d of 100 values, want every one", r.Len())
	}
}
