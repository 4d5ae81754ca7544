package store

import (
	"math/rand"
	"testing"
)

// TestSlotsReuseOrder: Open reuses the most recently freed slot before it
// adds one, and a reused record keeps the buffer its last use left.
func TestSlotsReuseOrder(t *testing.T) {
	type rec struct{ buf []int }
	var s Slots[rec]
	for want := range int32(3) {
		i, r := s.Open()
		if i != want {
			t.Fatalf("open #%d got slot %d", want, i)
		}
		r.buf = append(r.buf, int(i))
	}
	s.Free(1)
	s.Free(0)
	if s.InUse() != 1 || s.Len() != 3 {
		t.Fatalf("InUse %d Len %d, want 1 and 3", s.InUse(), s.Len())
	}
	for _, want := range []int32{0, 1, 3} {
		i, r := s.Open()
		if i != want {
			t.Fatalf("reopen got slot %d, want %d", i, want)
		}
		if kept := want < 3; kept != (cap(r.buf) > 0) || kept && r.buf[0] != int(want) {
			t.Fatalf("slot %d record %v: a reused record keeps its buffer, a new one starts empty", i, r.buf)
		}
	}
	if s.InUse() != 4 || s.At(2).buf[0] != 2 {
		t.Fatalf("InUse %d, slot 2 holds %v", s.InUse(), s.At(2).buf)
	}
}

// TestIDRingDoublesOnCollision: a new id whose position an open id holds
// doubles the ring until the two part, and a freed position takes a new id
// without growth.
func TestIDRingDoublesOnCollision(t *testing.T) {
	ids := map[int32]int64{}
	key := func(slot int32) int64 { return ids[slot] }
	r := NewIDRing(4)
	put := func(id int64, slot int32) {
		ids[slot] = id
		r.Put(id, slot, key)
	}
	put(0, 0)
	put(1, 1)
	if len(r.pos) != 4 {
		t.Fatalf("no collision, yet the ring grew to %d", len(r.pos))
	}
	put(4, 2) // 4 ≡ 0 mod 4
	if len(r.pos) != 8 {
		t.Fatalf("after one collision the ring has %d positions, want 8", len(r.pos))
	}
	put(16, 3) // 16 ≡ 0 mod 8 and mod 16
	if len(r.pos) != 32 {
		t.Fatalf("after a collision at 8 and 16 the ring has %d positions, want 32", len(r.pos))
	}
	if slot := r.Remove(4); slot != 2 {
		t.Fatalf("Remove(4) = %d, want 2", slot)
	}
	put(36, 2) // 36 ≡ 4 mod 32: the position 4 freed
	if len(r.pos) != 32 {
		t.Fatalf("a freed position grew the ring to %d", len(r.pos))
	}
	for slot, id := range ids {
		if got, ok := r.Get(id); !ok || got != slot {
			t.Fatalf("Get(%d) = %d, %v; want slot %d", id, got, ok, slot)
		}
	}
	if _, ok := r.Get(5); ok {
		t.Fatal("Get(5) found a slot at a free position")
	}
}

// TestSlotsAndIDRingMatchModel opens and closes records for random ids
// drawn from a sliding window, as requests in flight do, and checks
// against a map model after every step: each open id finds its own record,
// no two open ids share a ring position, and the table never holds more
// slots than the most records open at once.
func TestSlotsAndIDRingMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	type rec struct{ id int64 }
	var s Slots[rec]
	r := NewIDRing(8)
	key := func(slot int32) int64 { return s.At(slot).id }
	open := map[int64]int32{}
	var order []int64 // open ids, oldest first
	next, most := int64(0), 0
	for step := range 20_000 {
		if len(open) == 0 || rng.Intn(2) == 0 {
			// New ids arrive in order, with gaps, like sampled ids.
			next += 1 + int64(rng.Intn(3))
			i, rc := s.Open()
			r.Put(next, i, key)
			rc.id = next
			open[next] = i
			order = append(order, next)
			most = max(most, len(open))
		} else {
			// Close a random open id, rarely the oldest, so the oldest
			// stays open long enough for the span of open ids to force
			// the ring to grow.
			j := 0
			if len(order) > 1 && rng.Intn(50) != 0 {
				j = 1 + rng.Intn(len(order)-1)
			}
			id := order[j]
			order = append(order[:j], order[j+1:]...)
			s.Free(r.Remove(id))
			delete(open, id)
		}
		if step%97 != 0 {
			continue
		}
		held := map[int64]int64{}
		mask := int64(len(r.pos) - 1)
		for id, i := range open {
			if got, ok := r.Get(id); !ok || got != i || s.At(got).id != id {
				t.Fatalf("step %d: Get(%d) = %d, %v; want slot %d", step, id, got, ok, i)
			}
			if other, dup := held[id&mask]; dup {
				t.Fatalf("step %d: ids %d and %d share position %d", step, other, id, id&mask)
			}
			held[id&mask] = id
		}
		if s.InUse() != len(open) || s.Len() > most {
			t.Fatalf("step %d: InUse %d, Len %d; %d open, at most %d at once", step, s.InUse(), s.Len(), len(open), most)
		}
	}
	if len(r.pos) == 8 {
		t.Fatal("the ring never grew; the model does not exercise a collision")
	}
}

// TestIDRingZeroAndBounded: a zero ring takes firstRing positions at its
// first Put, and PutAtMost doubles only below its bound; at the bound a
// new id takes the position and PutAtMost returns the slot it held.
func TestIDRingZeroAndBounded(t *testing.T) {
	var r IDRing
	if _, ok := r.Get(5); ok {
		t.Fatal("a zero ring found a slot")
	}
	ids := map[int32]int64{}
	key := func(slot int32) int64 { return ids[slot] }
	put := func(id int64, slot int32) (int32, bool) {
		ids[slot] = id
		return r.PutAtMost(id, slot, 2*firstRing, key)
	}
	if _, ok := put(5, 0); ok || len(r.pos) != firstRing {
		t.Fatalf("first Put: evicted %v, %d positions; want none and %d", ok, len(r.pos), firstRing)
	}
	if _, ok := put(5+firstRing, 1); ok || len(r.pos) != 2*firstRing {
		t.Fatalf("a collision below the bound: evicted %v, %d positions; want none and %d", ok, len(r.pos), 2*firstRing)
	}
	evicted, ok := put(5+2*firstRing, 2)
	if !ok || evicted != 0 || len(r.pos) != 2*firstRing {
		t.Fatalf("a collision at the bound: evicted %d, %v, %d positions; want slot 0 and %d", evicted, ok, len(r.pos), 2*firstRing)
	}
	for id, want := range map[int64]int32{5: 2, 5 + firstRing: 1} {
		if got, ok := r.Get(id); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; want slot %d", id, got, ok, want)
		}
	}
}
