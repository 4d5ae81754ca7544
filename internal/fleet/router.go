package fleet

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ReplicaSnapshot is the telemetry the router reads at an epoch barrier —
// all of it already exported by the serving stacks: batcher queue depth,
// ledger in-flight backlog, planned capacity, and SLO budget burn.
type ReplicaSnapshot struct {
	Replica int
	Tenant  string
	// QueueDepth is the batcher's pending-sample count at the barrier.
	QueueDepth int
	// Inflight is arrived − completed − dropped from the ledger's O(1)
	// exact totals: samples admitted but not yet terminal.
	Inflight int
	// Capacity is the allocation plan's goodput (samples/s).
	Capacity float64
	// Burn is the SLO budget burn rate ObserveWindow reported for the
	// last epoch (0 before the first barrier).
	Burn float64
	// Score is the routing weight derived from the above.
	Score float64
}

// TenantDecision is the router's per-epoch record for one tenant: the
// scores it routed with, where every arrival went, and how many were
// shed at the front door. Together with the deterministic smooth-WRR
// rule, it fully determines the assignment sequence.
type TenantDecision struct {
	Tenant string
	Scores []float64
	// Routed[r] counts this epoch's arrivals assigned to replica r.
	Routed []int
	// Shed counts arrivals rejected by front-door admission (the whole
	// fleet too backlogged to meet the deadline).
	Shed int
}

// EpochDecision is one epoch's routing record.
type EpochDecision struct {
	Epoch   int
	End     float64
	Tenants []TenantDecision
}

// Router scores replicas from barrier-time telemetry and spreads each
// tenant's arrivals with a smooth weighted round-robin: every arrival
// adds each replica's score to its credit, the highest credit wins (ties
// to the lowest index), and the winner pays the total score back. The
// credit state persists across epochs so long-run shares track scores
// even when epochs carry few arrivals. The router is owned by the
// coordinator goroutine; shards never touch it.
type Router struct {
	nReplicas int
	// credits[t][r] is tenant t's smooth-WRR credit for replica r.
	credits [][]float64
	// Log is the append-only decision record; its Digest is part of the
	// fleet determinism contract.
	Log []EpochDecision
	// Minted / RoutedTotal / ShedTotal are fleet-conservation counters:
	// Minted == RoutedTotal + ShedTotal always.
	Minted      int
	RoutedTotal int
	ShedTotal   int
	// snaps, inflight, lanes and picks are per-epoch scratch, reused
	// every barrier: the telemetry snapshots, one tenant's backlog view
	// per replica, that tenant's stack on each replica, and the replica
	// each of its arrivals went to (-1 when shed at the door).
	snaps    []ReplicaSnapshot
	inflight []int
	lanes    []*replicaTenant
	picks    []int32
}

// NewRouter builds a router for nReplicas × nTenants credit lanes.
func NewRouter(nReplicas, nTenants int) *Router {
	r := &Router{
		nReplicas: nReplicas,
		inflight:  make([]int, nReplicas),
		lanes:     make([]*replicaTenant, nReplicas),
	}
	for i := 0; i < nTenants; i++ {
		r.credits = append(r.credits, make([]float64, nReplicas))
	}
	return r
}

// minScore floors every replica's score so no replica is ever starved:
// even a fully backlogged or budget-burning replica keeps a trickle of
// credit growth and is eventually routed to (the starvation test pins
// this).
const minScore = 0.05

// score computes one (replica, tenant) routing weight:
//
//	capacity × max(minScore, 1 − inflight/(capacity×epochDur)) × 1/(1+max(0, burn−1))
//
// Capacity is the GPU-aware term (an A6000 replica outscores a K80 one);
// the middle term discounts a replica already holding ~an epoch of
// backlog; the last term backs off replicas burning SLO budget faster
// than their target allows.
func score(capacity float64, inflight int, epochDur, burn float64) float64 {
	if capacity <= 0 {
		return minScore
	}
	room := 1 - float64(inflight)/(capacity*epochDur)
	if room < minScore {
		room = minScore
	}
	pen := 1 / (1 + math.Max(0, burn-1))
	return capacity * room * pen
}

// Snapshots reads every (replica, tenant) stack's barrier-time telemetry
// and derives routing scores. Replica-major, tenant-minor order, so stack
// (r, t) sits at r×tenants+t. The slice is router scratch, overwritten by
// the next call.
func (ro *Router) Snapshots(f *Fleet) []ReplicaSnapshot {
	out := ro.snaps[:0]
	for _, rep := range f.replicas {
		for ti, rt := range rep.tenants {
			arrived, completed, dropped := rt.st.Coll.Audit.Totals()
			s := ReplicaSnapshot{
				Replica:    rep.Index,
				Tenant:     f.cfg.Tenants[ti].Name,
				QueueDepth: rt.st.Batcher.QueueLen(),
				Inflight:   arrived - completed - dropped,
				Capacity:   rt.capacity,
				Burn:       rt.lastBurn,
			}
			s.Score = score(s.Capacity, s.Inflight, f.cfg.EpochDur, s.Burn)
			out = append(out, s)
		}
	}
	ro.snaps = out
	return out
}

// RouteEpoch routes the epoch's minted arrivals in (start, end]: it
// applies front-door admission, assigns survivors to replicas by smooth
// WRR over barrier-time scores, and injects each replica's share into its
// event loop. Coordinator-only; must run between barriers, never
// concurrently with shard execution or minting.
//
// Each stack's share goes into its feed buffer, truncated and refilled
// here every epoch. One buffer per stack suffices: the shard's
// Advance(end) runs every event at or before end, every routed arrival
// lies in (start, end], and the batcher copies each sample by value on
// arrival, so by the next barrier the shard holds no reference into the
// buffer. The decision log's rows are the only allocations, a fixed
// number per epoch whatever the arrivals, plus one for each reused
// buffer that reaches a new high-water mark.
func (ro *Router) RouteEpoch(f *Fleet, epoch int, start, end float64) EpochDecision {
	snaps := ro.Snapshots(f)
	nt, nr := len(f.cfg.Tenants), ro.nReplicas
	scores := make([]float64, nt*nr)
	routed := make([]int, nt*nr)
	dec := EpochDecision{Epoch: epoch, End: end, Tenants: make([]TenantDecision, nt)}
	inflight, lanes := ro.inflight, ro.lanes
	most := 0
	for i := range f.sources {
		most = max(most, len(f.sources[i].minted))
	}
	ro.picks = slices.Grow(ro.picks[:0], most)
	for ti, t := range f.cfg.Tenants {
		td := &dec.Tenants[ti]
		td.Tenant = t.Name
		td.Scores = scores[ti*nr : (ti+1)*nr : (ti+1)*nr]
		td.Routed = routed[ti*nr : (ti+1)*nr : (ti+1)*nr]
		// The tenant's score row, mutable backlog view and stacks.
		total := 0.0
		for r := range nr {
			s := &snaps[r*nt+ti]
			td.Scores[r] = s.Score
			total += s.Score
			inflight[r] = s.Inflight + s.QueueDepth
			lanes[r] = f.replicas[r].tenants[ti]
		}
		minted := f.sources[ti].minted
		// Shed samples were minted too — they existed — but reach no
		// ledger; only the router remembers them (Minted = RoutedTotal +
		// ShedTotal).
		ro.Minted += len(minted)
		picks := ro.picks[:len(minted)]
		for i := range minted {
			// Front-door admission: if even the least-loaded replica's
			// estimated backlog at this arrival's time — epoch-start
			// inflight plus what we routed it this epoch, minus what it
			// drains at planned capacity by then — cannot clear within
			// the SLO, the deadline is hopeless fleet-wide: shed at the
			// door instead of burning a replica's queue on it.
			if doorHopeless(inflight, lanes, t.SLO, minted[i].Arrival-start) {
				picks[i] = -1
				td.Shed++
				ro.ShedTotal++
				continue
			}
			pick := ro.pickWRR(ti, td.Scores, total)
			td.Routed[pick]++
			ro.RoutedTotal++
			inflight[pick]++
			picks[i] = int32(pick)
		}
		// Size every share before filling it, so a feed that outgrows its
		// buffer reallocates once, not once per doubling.
		for r, rt := range lanes {
			rt.feed = slices.Grow(rt.feed[:0], td.Routed[r])
		}
		for i, pick := range picks {
			if pick >= 0 {
				rt := lanes[pick]
				rt.feed = append(rt.feed, minted[i])
			}
		}
		for _, rt := range lanes {
			rt.inject()
		}
	}
	ro.Log = append(ro.Log, dec)
	return dec
}

// doorHopeless reports whether no replica can clear its estimated
// backlog for this tenant within the SLO — the fleet-level analogue of
// the batcher's deadlineHopeless check. The estimate drains the
// barrier-time backlog at planned capacity for the `elapsed` seconds
// since the epoch started, so arrivals late in an epoch are not charged
// for backlog the replica has already worked off.
func doorHopeless(inflight []int, lanes []*replicaTenant, slo, elapsed float64) bool {
	for r := range inflight {
		cap := lanes[r].capacity
		if cap <= 0 {
			continue
		}
		est := float64(inflight[r]) - cap*elapsed
		if est <= 0 || est/cap <= slo {
			return false
		}
	}
	return true
}

// pickWRR advances tenant ti's smooth weighted round-robin one step.
func (ro *Router) pickWRR(ti int, scores []float64, total float64) int {
	credits := ro.credits[ti]
	best := 0
	for r := 0; r < ro.nReplicas; r++ {
		credits[r] += scores[r]
		if credits[r] > credits[best] {
			best = r
		}
	}
	credits[best] -= total
	return best
}

// Digest canonically serializes the decision log: every epoch, every
// tenant, every score and per-replica count. Byte-identical digests mean
// identical routing — the second half of the determinism contract.
func (ro *Router) Digest() string {
	// Size the log once: an epoch line takes about 32 bytes, a tenant
	// line about 16 plus its name, and each replica on it about 14.
	size := 64
	for _, ep := range ro.Log {
		size += 32
		for _, td := range ep.Tenants {
			size += 16 + len(td.Tenant) + 14*len(td.Routed)
		}
	}
	var b strings.Builder
	b.Grow(size)
	fmt.Fprintf(&b, "router minted=%d routed=%d shed=%d\n", ro.Minted, ro.RoutedTotal, ro.ShedTotal)
	for _, ep := range ro.Log {
		fmt.Fprintf(&b, "epoch %d end=%.9g\n", ep.Epoch, ep.End)
		for _, td := range ep.Tenants {
			fmt.Fprintf(&b, "  %s shed=%d", td.Tenant, td.Shed)
			for r := range td.Routed {
				fmt.Fprintf(&b, " r%d=%d/%.6g", r, td.Routed[r], td.Scores[r])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
