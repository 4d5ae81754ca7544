package flame

// Span replay: rebuild a compute profile from a recorded telemetry span
// stream (a Chrome trace re-imported by e3-trace, or a live ring). The
// replayed profile is coarser than a live one — spans carry no ramp/pad
// decomposition, so all busy weight folds as useful, and no model name —
// but the bubble taxonomy is identical, which is what the per-split
// summary table needs.

import (
	"sort"
	"strconv"
	"strings"

	"e3/internal/telemetry"
)

// FromSpans folds a span stream into a profile. Spans are replayed in
// stable virtual-time order (ties keep stream order), so the result is
// deterministic for any fixed input stream.
func FromSpans(spans []telemetry.Span) *Profile {
	if len(spans) == 0 {
		return (*Profiler)(nil).Profile()
	}
	ordered := append([]telemetry.Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	start, end := ordered[0].Start, ordered[0].End
	for _, sp := range ordered {
		if sp.Start < start {
			start = sp.Start
		}
		if sp.End > end {
			end = sp.End
		}
	}
	p := NewProfiler(start)
	for _, sp := range ordered {
		switch sp.Kind {
		case telemetry.KindExecute:
			p.Execute(p.Register(sp.Track, sp.GPU), "", sp.Stage, 0, 0, sp.Start, sp.End, 0, 0)
		case telemetry.KindTransfer:
			// The span records the source stage; the gap it explains is at
			// the destination.
			p.Transfer(sp.Stage+1, sp.Start, sp.End)
		case telemetry.KindFuse:
			p.Fuse(sp.Stage, sp.Start, sp.End)
		}
	}
	p.CloseAt(end)
	return p.Profile()
}

// SummarizeBubbles aggregates the profile's bubble weight per split by
// cause, keyed by split index (-1 collects bubbles with no split frame —
// devices that never ran). This is the bridge the e3-trace summary table
// uses for its taxonomy columns.
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
