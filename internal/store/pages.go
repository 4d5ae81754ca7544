package store

import "math/bits"

// Page geometry: every page holds PageLen entries but the first, which is
// allocated as FirstPages segments of 64, 128, … PageLen/2 entries, each a
// page of its own, so an array that holds a handful of entries stays
// small.
const (
	pageBits   = 12
	PageLen    = 1 << pageBits
	firstBits  = 6
	firstLen   = 1 << firstBits
	FirstPages = pageBits - firstBits
)

// Locate returns the page and offset of entry i ≥ 0. Shifting i by the
// smallest segment's length puts segment s at [firstLen<<s,
// firstLen<<(s+1)) and each full page at a multiple of PageLen.
func Locate(i int) (p, o int) {
	j := uint(i) + firstLen
	if j >= PageLen {
		return int(j>>pageBits) + FirstPages - 1, int(j & (PageLen - 1))
	}
	h := bits.Len(j) - 1
	return h - firstBits, int(j - 1<<h)
}

// PageSize returns the number of entries of page p.
func PageSize(p int) int { return firstLen << min(p, FirstPages) }

// pageStart returns the index of page p's first entry.
func pageStart(p int) int {
	if p < FirstPages {
		return firstLen<<p - firstLen
	}
	return (p-FirstPages+1)*PageLen - firstLen
}

// Pages is an array that grows a page at a time (see Locate) and never
// moves an entry, so growing it copies nothing and a pointer to an entry
// stays valid. An array of n entries allocates about n entries plus one
// partly filled page. The zero value is empty and ready to use.
type Pages[T any] struct {
	pages [][]T
	n     int
}

// Len reports the entries the array holds.
func (a *Pages[T]) Len() int { return a.n }

// At returns entry i, 0 ≤ i < Len().
func (a *Pages[T]) At(i int) *T {
	p, o := Locate(i)
	return &a.pages[p][o]
}

// Grow adds a page of zero entries; Len becomes the end of that page.
func (a *Pages[T]) Grow() {
	p := len(a.pages)
	a.pages = append(a.pages, make([]T, PageSize(p))) //e3:alloc one page per PageLen entries, nothing copied
	a.n = pageStart(p + 1)
}

// NumPages reports the pages allocated.
func (a *Pages[T]) NumPages() int { return len(a.pages) }

// Page returns page p's entries below Len(), in index order, to read or
// write in place; it does not see entries appended after the call.
func (a *Pages[T]) Page(p int) []T {
	pg := a.pages[p]
	return pg[:min(len(pg), a.n-pageStart(p))]
}
