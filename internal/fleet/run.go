package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"e3/internal/cluster"
	"e3/internal/tasks"
)

// TenantResult is one (replica, tenant) stack's terminal accounting.
type TenantResult struct {
	Tenant string
	// Routed counts arrivals the router assigned here; the ledger's
	// Arrived total must equal it (checked by Verify).
	Routed     int
	Arrived    int
	Served     int
	Violations int
	Dropped    int
	Goodput    float64
	// QueueDepth and Inflight are the post-drain residuals (0 when the
	// drain completed cleanly).
	QueueDepth int
	Inflight   int
	Capacity   float64
	Burn       float64
}

// ShardResult is one replica's terminal accounting.
type ShardResult struct {
	Index  int
	GPUs   string
	Events uint64
	// Digest canonically serializes every tenant ledger on this shard.
	Digest  string
	Tenants []TenantResult
}

// Result is a fleet run's complete outcome: per-shard digests and
// accounting, the router's decision-log digest, and fleet-level
// conservation totals. Two Results from the same Config are
// byte-comparable via Digests().
type Result struct {
	Config Config
	// Epochs is the number of routing epochs executed.
	Epochs int
	// Minted = Routed + DoorShed (fleet front-door conservation).
	Minted   int
	Routed   int
	DoorShed int
	// Served/Violations/Dropped aggregate every shard's collectors.
	Served     int
	Violations int
	Dropped    int
	// Events is the summed engine event count across shards — the
	// numerator of the scaling curve.
	Events       uint64
	Shards       []ShardResult
	RouterDigest string
}

// Run executes the fleet to its horizon: per epoch, the coordinator
// routes the epoch's arrivals from barrier-time snapshots, the task pool
// advances every replica to the barrier while it mints the next epoch's
// arrivals (in parallel at cfg.Workers, serially in index order at ≤1),
// and budgets burn at the barrier. After the last epoch the shards drain
// and record their digests in the pool, and the run verifies its
// conservation invariants.
func Run(cfg Config) (*Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return f.run()
}

// run is Run on a built fleet.
func (f *Fleet) run() (*Result, error) {
	cfg := f.cfg // epoch clamping applied
	epochs := 0
	f.mint(f.epochEnd(0))
	for start := 0.0; start < cfg.Horizon; epochs++ {
		end := f.epochEnd(epochs)
		f.router.RouteEpoch(f, epochs, start, end)
		if err := f.advance(epochs); err != nil {
			return nil, fmt.Errorf("fleet: epoch %d: %w", epochs, err)
		}
		f.burnBudgets(cfg.EpochDur)
		start = end
	}
	if err := tasks.Run(len(f.replicas), cfg.Workers, func(i int) error {
		return f.replicas[i].Drain()
	}); err != nil {
		return nil, fmt.Errorf("fleet: drain: %w", err)
	}
	// Every stack's ledger must pass its own lifecycle invariants and
	// cross-check against its collector before the fleet-level checks.
	for _, rep := range f.replicas {
		for ti, rt := range rep.tenants {
			if rpt := rt.st.Coll.AuditReport(); !rpt.OK() {
				return nil, fmt.Errorf("fleet: shard %d tenant %s: %w", rep.Index, cfg.Tenants[ti].Name, rpt.Err())
			}
		}
	}
	res := f.collect(epochs)
	if err := res.Verify(); err != nil {
		return nil, err
	}
	return res, nil
}

// advance runs epoch e's pool tasks once its arrivals are routed: task
// 0, claimed first, mints epoch e+1 while tasks 1..n advance the shards
// to epoch e's barrier.
func (f *Fleet) advance(e int) error {
	end, next := f.epochEnd(e), f.epochEnd(e+1)
	return tasks.Run(len(f.replicas)+1, f.cfg.Workers, func(i int) error {
		if i == 0 {
			f.mint(next)
			return nil
		}
		return f.replicas[i-1].Advance(end)
	})
}

// burnBudgets runs at each barrier: every stack's epoch window feeds its
// SLO budget, whose burn rate becomes next epoch's routing signal.
// Coordinator-only.
func (f *Fleet) burnBudgets(epochDur float64) {
	for _, rep := range f.replicas {
		for _, rt := range rep.tenants {
			served, violations, dropped := rt.st.Coll.WindowCounts()
			wb := rt.budget.ObserveWindow(0, served, violations, dropped, epochDur)
			rt.lastBurn = wb.BurnRate
			rt.st.Coll.ResetWindow()
		}
	}
}

// collect assembles the terminal Result.
func (f *Fleet) collect(epochs int) *Result {
	res := &Result{
		Config:       f.cfg,
		Epochs:       epochs,
		Minted:       f.router.Minted,
		Routed:       f.router.RoutedTotal,
		DoorShed:     f.router.ShedTotal,
		RouterDigest: f.router.Digest(),
	}
	for _, rep := range f.replicas {
		sr := ShardResult{
			Index:  rep.Index,
			GPUs:   cluster.Describe(rep.Spec.GPUs),
			Events: rep.eng.Processed(),
			Digest: rep.digest,
		}
		res.Events += sr.Events
		for ti, rt := range rep.tenants {
			arrived, completed, dropped := rt.st.Coll.Audit.Totals()
			tr := TenantResult{
				Tenant:     f.cfg.Tenants[ti].Name,
				Routed:     rt.routed,
				Arrived:    arrived,
				Served:     rt.st.Coll.Good.Served,
				Violations: rt.st.Coll.Violations,
				Dropped:    rt.st.Coll.Dropped,
				Goodput:    rt.st.Coll.Good.Goodput(),
				QueueDepth: rt.st.Batcher.QueueLen(),
				Inflight:   arrived - completed - dropped,
				Capacity:   rt.capacity,
				Burn:       rt.lastBurn,
			}
			res.Served += tr.Served
			res.Violations += tr.Violations
			res.Dropped += tr.Dropped
			sr.Tenants = append(sr.Tenants, tr)
		}
		res.Shards = append(res.Shards, sr)
	}
	return res
}

// Verify checks the fleet's conservation invariants: the front door
// conserves (minted = routed + shed), every stack's ledger arrived total
// equals what the router sent it, every ledger's own lifecycle
// invariants hold, and nothing is left in flight after the drain.
func (r *Result) Verify() error {
	if r.Minted != r.Routed+r.DoorShed {
		return fmt.Errorf("fleet: door leak: minted %d != routed %d + shed %d", r.Minted, r.Routed, r.DoorShed)
	}
	for _, sr := range r.Shards {
		for _, tr := range sr.Tenants {
			if tr.Arrived != tr.Routed {
				return fmt.Errorf("fleet: shard %d tenant %s: ledger arrived %d != routed %d",
					sr.Index, tr.Tenant, tr.Arrived, tr.Routed)
			}
			if tr.QueueDepth != 0 || tr.Inflight != 0 {
				return fmt.Errorf("fleet: shard %d tenant %s not drained: queue=%d inflight=%d",
					sr.Index, tr.Tenant, tr.QueueDepth, tr.Inflight)
			}
		}
	}
	return nil
}

// Digests flattens the determinism-relevant state: every shard digest in
// index order plus the router's decision log. Byte-equal Digests ⇒ the
// two runs were identical.
func (r *Result) Digests() string {
	size := len(r.RouterDigest)
	for _, sr := range r.Shards {
		size += len("shard \n") + len(strconv.Itoa(sr.Index)) + len(sr.Digest)
	}
	var b strings.Builder
	b.Grow(size)
	for _, sr := range r.Shards {
		b.WriteString("shard ")
		b.WriteString(strconv.Itoa(sr.Index))
		b.WriteByte('\n')
		b.WriteString(sr.Digest)
	}
	b.WriteString(r.RouterDigest)
	return b.String()
}
