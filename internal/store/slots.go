package store

import "math"

// Slots is a free-listed table of records: Open reuses the most recently
// freed slot before it adds one, and a freed record keeps its buffers for
// the slot's next use, so the table grows with the records open at once,
// never with run length. The zero value is empty and ready to use.
type Slots[T any] struct {
	items []T
	free  []int32
}

// Open returns a free slot and its record, which holds what its last use
// left (the zero value for a new slot) for the caller to reset. The
// pointer, like At's, is valid until the next Open.
func (s *Slots[T]) Open() (int32, *T) {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i, &s.items[i]
	}
	var zero T
	s.items = append(s.items, zero)
	return int32(len(s.items) - 1), &s.items[len(s.items)-1]
}

// Free returns slot i to the free list.
func (s *Slots[T]) Free(i int32) { s.free = append(s.free, i) }

// At returns slot i's record, 0 ≤ i < Len().
func (s *Slots[T]) At(i int32) *T { return &s.items[i] }

// Len reports the slots, open or free.
func (s *Slots[T]) Len() int { return len(s.items) }

// InUse reports the slots holding an open record.
func (s *Slots[T]) InUse() int { return len(s.items) - len(s.free) }

// IDRing maps the ids of open records to their slots without hashing: a
// ring of a power-of-two size n holds at position id mod n the slot+1 of
// the record open for id (0 = none). Each open id owns its position; when
// a new id's position is taken, the ring doubles until it is not, so it
// grows with the span of the ids open at once, never with run length. The
// zero value is empty and ready to use: its first Put allocates
// firstRing positions.
type IDRing struct{ pos []int32 }

// firstRing is the size of a zero ring's first positions.
const firstRing = 64

// NewIDRing returns an empty ring of size positions, a power of two.
func NewIDRing(size int) IDRing { return IDRing{pos: make([]int32, size)} }

// Get returns the slot open at id's position, which may hold another id:
// the caller checks the record's.
func (r *IDRing) Get(id int64) (slot int32, ok bool) {
	if len(r.pos) == 0 {
		return -1, false
	}
	v := r.pos[id&int64(len(r.pos)-1)]
	return v - 1, v != 0
}

// Put opens slot at id's position, doubling the ring first while another
// id holds it; key returns the id open in a slot.
func (r *IDRing) Put(id int64, slot int32, key func(slot int32) int64) {
	r.PutAtMost(id, slot, math.MaxInt, key)
}

// PutAtMost is Put on a ring that doubles only while it has fewer than
// most positions. Past that, slot takes id's position from the id open
// there, and PutAtMost returns that id's slot (ok true), which the caller
// must from then on find without the ring.
func (r *IDRing) PutAtMost(id int64, slot int32, most int, key func(slot int32) int64) (evicted int32, ok bool) {
	for len(r.pos) == 0 || r.pos[id&int64(len(r.pos)-1)] != 0 && len(r.pos) < most {
		r.grow(key)
	}
	i := id & int64(len(r.pos)-1)
	evicted, ok = r.pos[i]-1, r.pos[i] != 0
	r.pos[i] = slot + 1
	return evicted, ok
}

// grow doubles the ring, or gives a zero ring its first positions. Open
// ids never collide in the doubled ring: ids apart mod n are apart mod 2n.
func (r *IDRing) grow(key func(int32) int64) {
	n := 2 * len(r.pos)
	if n == 0 {
		n = firstRing
	}
	pos := make([]int32, n) //e3:alloc ring growth, only when a new id's position is held by an open record
	for _, v := range r.pos {
		if v != 0 {
			pos[key(v-1)&int64(len(pos)-1)] = v
		}
	}
	r.pos = pos
}

// Remove frees id's position and returns the slot that was open there.
func (r *IDRing) Remove(id int64) int32 {
	i := id & int64(len(r.pos)-1)
	slot := r.pos[i] - 1
	r.pos[i] = 0
	return slot
}
