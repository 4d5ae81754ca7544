package flame

// Profile is the immutable fold output: the three export formats (folded
// text, pprof, JSON) and the differential comparator all read this one
// struct. Folded stacks use ';' as the frame separator with a private
// escaping scheme (escapeFrame) so model and device names containing
// ';', spaces, or newlines round-trip losslessly.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"e3/internal/telemetry"
)

// ProfileSchema versions the JSON profile encoding.
const ProfileSchema = 1

// DeviceTotals is one device's integer accounting. The conservation
// identity Busy − Overlap − Excess + Bubble == Horizon holds exactly for
// every device in a reconciled profile.
type DeviceTotals struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// BusyNanos is total executed batch time (overlapping spans counted
	// each time; OverlapNanos is the double-counted portion).
	BusyNanos    int64 `json:"busy_nanos"`
	OverlapNanos int64 `json:"overlap_nanos,omitempty"`
	// ExcessNanos is busy coverage past the measurement horizon (only when
	// a profile is snapshotted mid-span).
	ExcessNanos int64 `json:"excess_nanos,omitempty"`
	// BubbleNanos is total classified gap time.
	BubbleNanos int64 `json:"bubble_nanos"`
	// HorizonNanos is the profile window length.
	HorizonNanos int64 `json:"horizon_nanos"`
}

// Profile is a deterministic virtual-time compute profile: folded stacks
// with integer-nanosecond weights plus per-device accounting totals.
type Profile struct {
	Schema int `json:"schema"`
	// StartS/EndS bound the profile window in virtual seconds.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// TotalNanos sums busy − overlap − excess + bubble over devices; in a
	// reconciled profile it equals devices × horizon.
	TotalNanos int64 `json:"total_nanos"`
	// Stacks maps escaped folded stack → weight in virtual nanoseconds.
	Stacks  map[string]int64 `json:"stacks"`
	Devices []DeviceTotals   `json:"devices,omitempty"`
}

// escapeFrame makes a frame safe for folded-stack encoding: backslash,
// the ';' separator, spaces (the folded format's stack/weight separator),
// and newlines (the record separator) are escaped. Byte-oriented on
// purpose — only ASCII specials need escaping, and byte transparency
// keeps frames that are not valid UTF-8 intact through a round trip.
func escapeFrame(s string) string {
	if !strings.ContainsAny(s, "\\; \n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case ';':
			b.WriteString(`\;`)
		case ' ':
			b.WriteString(`\_`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeFrame inverts escapeFrame. Unknown escapes keep the escaped
// character; a trailing backslash is kept literally.
func unescapeFrame(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	esc := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if esc {
			switch c {
			case '_':
				b.WriteByte(' ')
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(c)
			}
			esc = false
			continue
		}
		if c == '\\' {
			esc = true
			continue
		}
		b.WriteByte(c)
	}
	if esc {
		b.WriteByte('\\')
	}
	return b.String()
}

// SplitStack splits an escaped folded stack into unescaped frames,
// root-first. Splitting happens on unescaped ';' only.
func SplitStack(stack string) []string {
	var frames []string
	start, esc := 0, false
	for i := 0; i < len(stack); i++ {
		if esc {
			esc = false
			continue
		}
		switch stack[i] {
		case '\\':
			esc = true
		case ';':
			frames = append(frames, unescapeFrame(stack[start:i]))
			start = i + 1
		}
	}
	return append(frames, unescapeFrame(stack[start:]))
}

// JoinStack escapes frames and joins them with ';' (the inverse of
// SplitStack).
func JoinStack(frames []string) string {
	esc := make([]string, len(frames))
	for i, f := range frames {
		esc[i] = escapeFrame(f)
	}
	return strings.Join(esc, ";")
}

// sortedStacks returns the profile's stacks in sorted order — the
// canonical iteration order for every deterministic export.
func (pr *Profile) sortedStacks() []string {
	out := make([]string, 0, len(pr.Stacks))
	for k := range pr.Stacks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Folded renders the profile as collapsed-stack text, one "stack weight"
// line per folded stack in sorted stack order: the byte-identical-across-
// runs format the flamegate compares, directly loadable by standard
// flamegraph tooling.
func (pr *Profile) Folded() []byte {
	var b strings.Builder
	for _, k := range pr.sortedStacks() {
		if w := pr.Stacks[k]; w > 0 {
			b.WriteString(k)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(w, 10))
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// WriteJSON writes the deterministic JSON encoding: encoding/json emits
// map keys sorted, Devices are already sorted by ID, so same profile ⇒
// same bytes.
func (pr *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pr)
}

// ReadProfile decodes a JSON profile written by WriteJSON.
func ReadProfile(r io.Reader) (*Profile, error) {
	var pr Profile
	if err := json.NewDecoder(r).Decode(&pr); err != nil {
		return nil, err
	}
	if pr.Schema != ProfileSchema {
		return nil, fmt.Errorf("flame profile schema %d (want %d)", pr.Schema, ProfileSchema)
	}
	if pr.Stacks == nil {
		pr.Stacks = map[string]int64{}
	}
	return &pr, nil
}

// BusyNanos sums non-bubble weight: time the devices spent executing.
func (pr *Profile) BusyNanos() int64 {
	var n int64
	for k, w := range pr.Stacks {
		if !isBubbleStack(k) {
			n += w
		}
	}
	return n
}

// BubbleNanos sums bubble weight: classified device gaps.
func (pr *Profile) BubbleNanos() int64 {
	var n int64
	for k, w := range pr.Stacks {
		if isBubbleStack(k) {
			n += w
		}
	}
	return n
}

// Rollup aggregates the profile by leaf frame: busy weight keyed by
// {useful, ramp-overhead, pad-waste}, bubble weight keyed by cause
// {queue-starved, transfer-blocked, fuse-blocked, drained, idle} — the
// shape the /metrics e3_flame_* series export.
func (pr *Profile) Rollup() (busy, bubble map[string]int64) {
	busy = make(map[string]int64, 3)
	bubble = make(map[string]int64, numClasses)
	for stack, w := range pr.Stacks {
		if w <= 0 {
			continue
		}
		frames := SplitStack(stack)
		leaf := frames[len(frames)-1]
		if isBubbleStack(stack) {
			bubble[leaf] += w
		} else {
			busy[leaf] += w
		}
	}
	return busy, bubble
}

// SummarizeBubbles aggregates the profile's bubble weight per split by
// cause, keyed by split index (-1 collects bubbles with no split frame —
// devices that never ran). It feeds the taxonomy columns of
// telemetry.Summary's table.
func SummarizeBubbles(pr *Profile) map[int]telemetry.BubbleShares {
	out := make(map[int]telemetry.BubbleShares)
	for stack, w := range pr.Stacks { //e3:unordered per-split sums are commutative; iteration order cannot change them
		if !isBubbleStack(stack) || w <= 0 {
			continue
		}
		frames := SplitStack(stack)
		// Frames past the "bubble" marker: optional "split:N", then the
		// cause leaf.
		i := 0
		for i < len(frames) && frames[i] != "bubble" {
			i++
		}
		split, cause := -1, ""
		for _, f := range frames[i+1:] {
			if n, ok := strings.CutPrefix(f, "split:"); ok {
				if v, err := strconv.Atoi(n); err == nil {
					split = v
				}
				continue
			}
			cause = f
		}
		bs := out[split]
		switch cause {
		case className[classQueueStarved]:
			bs.QueueStarvedNanos += w
		case className[classTransferBlocked]:
			bs.TransferBlockedNanos += w
		case className[classFuseBlocked]:
			bs.FuseBlockedNanos += w
		case className[classDrained]:
			bs.DrainedNanos += w
		case className[classIdle]:
			bs.IdleNanos += w
		}
		out[split] = bs
	}
	return out
}

// isBubbleStack reports whether an escaped folded stack is a bubble fold
// (contains the literal ";bubble;" frame boundary — escaped device names
// can never produce an unescaped ';').
func isBubbleStack(stack string) bool {
	return strings.Contains(stack, ";bubble;")
}

// DiffEntry is one stack's signed GPU-time delta between two profiles
// (positive: B has more).
type DiffEntry struct {
	Stack      string `json:"stack"`
	ANanos     int64  `json:"a_nanos"`
	BNanos     int64  `json:"b_nanos"`
	DeltaNanos int64  `json:"delta_nanos"`
}

// DiffReport aligns two profiles frame-by-frame: every stack present in
// either side, with signed deltas ranked by |GPU-time moved|.
type DiffReport struct {
	ATotalNanos int64 `json:"a_total_nanos"`
	BTotalNanos int64 `json:"b_total_nanos"`
	// MovedNanos is the one-sided volume of change: the sum of positive
	// deltas (equivalently, of |negative| deltas, up to the total shift).
	MovedNanos int64       `json:"moved_nanos"`
	Entries    []DiffEntry `json:"entries"`
}

// Diff compares two profiles stack-by-stack. Entries carry only stacks
// whose weight changed, sorted by |delta| descending (ties: stack
// ascending) — the "what moved" ranking.
func Diff(a, b *Profile) *DiffReport {
	rep := &DiffReport{}
	keys := make(map[string]bool, len(a.Stacks)+len(b.Stacks))
	for k, w := range a.Stacks {
		keys[k] = true
		rep.ATotalNanos += w
	}
	for k, w := range b.Stacks {
		keys[k] = true
		rep.BTotalNanos += w
	}
	for k := range keys {
		aw, bw := a.Stacks[k], b.Stacks[k]
		if aw == bw {
			continue
		}
		d := bw - aw
		if d > 0 {
			rep.MovedNanos += d
		}
		rep.Entries = append(rep.Entries, DiffEntry{Stack: k, ANanos: aw, BNanos: bw, DeltaNanos: d})
	}
	sort.Slice(rep.Entries, func(i, j int) bool {
		di, dj := absInt64(rep.Entries[i].DeltaNanos), absInt64(rep.Entries[j].DeltaNanos)
		if di != dj {
			return di > dj
		}
		return rep.Entries[i].Stack < rep.Entries[j].Stack
	})
	return rep
}
