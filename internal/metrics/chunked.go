package metrics

// chunked is an append-only store that never moves an element once
// stored. It grows by adding a chunk: the first holds firstChunk entries
// and each later one twice the last, up to maxChunk. A run-long
// accumulator therefore allocates about one element per entry plus one
// partly filled chunk, where one doubling slice would allocate about
// twice what it keeps and copy every entry at each regrowth, and an
// accumulator that records a few entries stays small. The zero value is
// empty and ready to use.
type chunked[T any] struct {
	// full holds the filled chunks in record order; tail is the chunk
	// being filled, nil before the first add.
	full [][]T
	tail []T
	n    int
}

const (
	firstChunk = 64
	maxChunk   = 4096
)

// add appends v.
func (c *chunked[T]) add(v T) {
	if len(c.tail) == cap(c.tail) {
		size := firstChunk
		if c.tail != nil {
			c.full = append(c.full, c.tail)
			size = min(2*cap(c.tail), maxChunk)
		}
		c.tail = make([]T, 0, size)
	}
	c.tail = append(c.tail, v)
	c.n++
}

// len reports the number of stored entries.
func (c *chunked[T]) len() int { return c.n }

// chunks reports how many chunks hold entries.
func (c *chunked[T]) chunks() int {
	if len(c.tail) == 0 {
		return len(c.full)
	}
	return len(c.full) + 1
}

// chunk returns chunk i (0 ≤ i < chunks()) in record order. Callers read
// the stored entries in place and must not keep or modify the slice.
func (c *chunked[T]) chunk(i int) []T {
	if i < len(c.full) {
		return c.full[i]
	}
	return c.tail
}
