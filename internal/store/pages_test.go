package store

import (
	"runtime"
	"testing"
)

// TestLocateMatchesPageSizes checks index ↔ (page, offset) against pages
// laid end to end by PageSize: every entry of the first page's segments
// and of the first full pages, so every segment boundary and several
// full-page boundaries are crossed.
func TestLocateMatchesPageSizes(t *testing.T) {
	i := 0
	for p := 0; p < FirstPages+4; p++ {
		size := PageSize(p)
		if want := firstLen << min(p, FirstPages); size != want {
			t.Fatalf("PageSize(%d) = %d, want %d", p, size, want)
		}
		if pageStart(p) != i {
			t.Fatalf("pageStart(%d) = %d, want %d", p, pageStart(p), i)
		}
		for o := range size {
			if gp, gotO := Locate(i); gp != p || gotO != o {
				t.Fatalf("Locate(%d) = (%d, %d), want (%d, %d)", i, gp, gotO, p, o)
			}
			i++
		}
	}
	if end := pageStart(FirstPages); end != PageLen-firstLen {
		t.Fatalf("the first page's segments hold %d entries, want %d", end, PageLen-firstLen)
	}
}

// fill writes set(i) into entries 0 to n-1 of an empty a through At,
// growing a page whenever the next index reaches Len, as a caller that
// fills pages in place does.
func fill[T any](a *Pages[T], n int, set func(i int) T) {
	for i := range n {
		if i == a.Len() {
			a.Grow()
		}
		*a.At(i) = set(i)
	}
}

// TestPagesNeverMove: every entry keeps its address and value as the array
// grows, so no entry is ever copied; Page reads the entries back in index
// order, in place.
func TestPagesNeverMove(t *testing.T) {
	type span struct{ start, end float64 }
	var a Pages[span]
	const n = 3*PageLen + 100
	addrs := make([]*span, 0, n)
	for i := range n {
		if i == a.Len() {
			a.Grow()
		}
		*a.At(i) = span{start: float64(i)}
		addrs = append(addrs, a.At(i))
	}
	i := 0
	for p := range a.NumPages() {
		pg := a.Page(p)
		for j := range pg {
			if i < n && (&pg[j] != addrs[i] || pg[j].start != float64(i)) {
				t.Fatalf("entry %d moved or changed", i)
			}
			i++
		}
	}
	if i != a.Len() || i < n || i >= n+PageLen {
		t.Fatalf("pages read %d entries, Len %d; want Len, at least %d and within a page of it", i, a.Len(), n)
	}
}

// TestPagesGrow: Grow adds a page of zero entries and Len reaches its end;
// entries already written stay where they are.
func TestPagesGrow(t *testing.T) {
	var a Pages[int32]
	for p := range FirstPages + 2 {
		a.Grow()
		if a.NumPages() != p+1 || a.Len() != pageStart(p+1) {
			t.Fatalf("after %d grows: %d pages, Len %d, want %d and %d", p+1, a.NumPages(), a.Len(), p+1, pageStart(p+1))
		}
		if len(a.Page(p)) != PageSize(p) {
			t.Fatalf("page %d holds %d entries, want %d", p, len(a.Page(p)), PageSize(p))
		}
		*a.At(pageStart(p)) = int32(p + 1)
	}
	first := a.At(0)
	a.Grow()
	if a.At(0) != first || *first != 1 || *a.At(a.Len() - 1) != 0 {
		t.Fatal("Grow moved or changed an entry, or the new page is not zero")
	}
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPagesGrowthAllocations: growing to N entries allocates one entry per
// entry plus at most one page of slack and the page headers, where a
// doubling slice allocates about twice what it keeps.
func TestPagesGrowthAllocations(t *testing.T) {
	const n = 1 << 18
	headers := uint64(3 * 24 * (n/PageLen + 8))
	var a Pages[float64]
	got := allocBytes(func() {
		fill(&a, n, func(i int) float64 { return float64(i) })
	})
	if limit := uint64(n+PageLen)*8 + headers; got > limit {
		t.Errorf("%d entries allocated %d B, want ≤ %d", n, got, limit)
	}
}

// TestSmallPagesStaySmall: an array of up to 64 entries costs its first
// segment and one page header.
func TestSmallPagesStaySmall(t *testing.T) {
	for _, n := range []int{1, firstLen} {
		var a Pages[float64]
		got := allocBytes(func() {
			fill(&a, n, func(i int) float64 { return float64(i) })
		})
		if limit := uint64(firstLen*8 + 32); got > limit {
			t.Errorf("%d entries allocated %d B, want ≤ %d", n, got, limit)
		}
	}
}
