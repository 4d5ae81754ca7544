// Package store holds the run-long containers the serving stack keeps its
// observations in, each written once: Ring keeps the last N values pushed,
// Pages is a paged array whose entries never move, and Slots is a
// free-listed table of reusable records, with IDRing mapping the ids of
// the open records to their slots. Like the observers built on them, none
// is safe for concurrent use.
package store

// Ring keeps the last N values pushed, reads them oldest first and counts
// every push. A ring of capacity 0, the zero value included, keeps every
// value.
type Ring[T any] struct {
	items []T
	// limit bounds len(items) (0 = unbounded); next indexes the oldest
	// value once the ring is full, which the next push overwrites.
	limit, next, total int
}

// NewRing returns an empty ring that keeps the last capacity values, or
// every value when capacity ≤ 0.
func NewRing[T any](capacity int) Ring[T] { return Ring[T]{limit: max(capacity, 0)} }

// Push adds v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.total++
	if len(r.items) < r.limit || r.limit == 0 {
		r.items = append(r.items, v)
		return
	}
	r.items[r.next] = v
	if r.next++; r.next == r.limit {
		r.next = 0
	}
}

// Len reports the values kept.
func (r *Ring[T]) Len() int { return len(r.items) }

// At returns the i-th oldest value kept, 0 ≤ i < Len().
func (r *Ring[T]) At(i int) T {
	if i += r.next; i >= len(r.items) {
		i -= len(r.items)
	}
	return r.items[i]
}

// Last returns the newest value; the ring must not be empty.
func (r *Ring[T]) Last() T { return r.At(len(r.items) - 1) }

// Slices returns the kept values, oldest first, as two runs that alias
// the ring until its next push: every value of older precedes every value
// of newer.
func (r *Ring[T]) Slices() (older, newer []T) { return r.items[r.next:], r.items[:r.next] }

// AppendTo appends the kept values to dst, oldest first; a nil dst stays
// nil when the ring is empty.
func (r *Ring[T]) AppendTo(dst []T) []T {
	older, newer := r.Slices()
	return append(append(dst, older...), newer...)
}

// Total reports the values pushed, evicted ones included.
func (r *Ring[T]) Total() int { return r.total }

// Evicted reports the values the ring has discarded.
func (r *Ring[T]) Evicted() int { return r.total - len(r.items) }
