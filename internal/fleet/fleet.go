// Package fleet scales E3 past one cluster: N replica clusters (possibly
// heterogeneous), each a complete single-goroutine serving stack —
// its own sim.Engine, per-tenant dynamic batchers, pipeline runners,
// sampled conservation ledgers, and batch pool — executed by the
// deterministic task pool (package tasks) and fed by a GPU-aware router.
//
// Time is divided into routing epochs. At each epoch boundary the
// coordinator (a single goroutine) scores every replica from the
// telemetry the replicas already export (queue depth, in-flight backlog,
// utilization, SLO budget burn), routes the epoch's arrivals with a
// smooth weighted round-robin over those scores (front-door admission
// shedding arrivals the whole fleet is too backlogged to serve), and
// hands each replica its share. The shards then advance in parallel to
// the epoch boundary — they share nothing, so one goroutine per shard is
// safe — while one more pool task mints the next epoch's arrivals from
// the per-tenant Poisson streams, which no shard reads; everything
// barrier-synchronizes before the next routing decision. The barrier
// itself is left with only what must be serial: the door check and the
// WRR pick.
//
// Because routing depends only on barrier-time snapshots, minting only
// on the streams, and each shard's execution between barriers is a
// deterministic single-goroutine event loop, the fleet result — every
// ledger digest, every router decision — is byte-identical to a serial
// reference execution of the same tasks in index order, at any worker
// count. The determinism property test, the golden digests and
// `make fleetgate` enforce that contract.
package fleet

import (
	"errors"
	"fmt"
	"strings"

	"e3/internal/cluster"
	"e3/internal/gpu"
	"e3/internal/multi"
	"e3/internal/profile"
	"e3/internal/scheduler"
	"e3/internal/serving"
	"e3/internal/sim"
	"e3/internal/slo"
	"e3/internal/trace"
	"e3/internal/workload"
)

// ReplicaSpec describes one replica cluster's inventory. Replicas may be
// heterogeneous — the router's scores absorb capacity differences.
type ReplicaSpec struct {
	GPUs map[gpu.Kind]int
}

// Size is the replica's device count.
func (r ReplicaSpec) Size() int {
	n := 0
	for _, c := range r.GPUs {
		n += c
	}
	return n
}

// Config parameterizes a fleet run.
type Config struct {
	// Tenants are the model deployments served fleet-wide. Each Rate is
	// the aggregate Poisson arrival rate (req/s) across the whole fleet;
	// the router decides how it lands on replicas.
	Tenants  []multi.Tenant
	Replicas []ReplicaSpec
	// Horizon is the arrival-trace length in virtual seconds; EpochDur the
	// routing-epoch length (both virtual).
	Horizon  float64
	EpochDur float64
	Seed     int64
	// AuditStride samples per-event ledger detail every Nth request per
	// (replica, tenant); population totals stay exact. ≤1 = exhaustive.
	AuditStride int64
	// Workers bounds the shard-runner goroutines; ≤1 runs the serial
	// reference execution (shards in index order, one goroutine).
	Workers int
}

// validate rejects configs the build cannot honor.
func (c Config) validate() error {
	if err := multi.ValidateTenants(c.Tenants); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if len(c.Replicas) == 0 {
		return errors.New("fleet: no replicas")
	}
	if c.Horizon <= 0 || c.EpochDur <= 0 {
		return errors.New("fleet: horizon and epoch duration must be positive")
	}
	return nil
}

// replicaTenant is one (replica, tenant) serving stack plus the routing
// bookkeeping the coordinator reads at barriers.
type replicaTenant struct {
	st multi.ServingTenant
	// capacity is the allocation's planned goodput (samples/s) — the
	// GPU-aware half of the router's score.
	capacity float64
	// routed counts arrivals the router assigned to this stack.
	routed int
	// budget tracks per-epoch SLO burn; burn feeds the router's score.
	budget *slo.Budget
	// lastBurn is the burn rate ObserveWindow reported at the last barrier.
	lastBurn float64
	// feed holds the arrivals routed here this epoch, in arrival order;
	// arrivals walks it on the shard's engine, next being the first one
	// not yet delivered. The router refills feed at each barrier.
	feed     []workload.Sample
	next     int
	arrivals *sim.Timer
}

// Replica is one shard: a complete serving stack on its own engine. All
// fields are owned by the shard's event loop; between barriers exactly
// one goroutine touches them.
type Replica struct {
	Index int
	Spec  ReplicaSpec
	eng   *sim.Engine
	clus  *cluster.Cluster
	// pool recycles batch slices through this shard's batchers and
	// pipelines only. Pools are loop-owned (see workload.BatchPool): two
	// shards must never exchange pooled buffers, so each replica gets its
	// own pool at build time (the ownership regression test pins this).
	pool    *workload.BatchPool
	tenants []*replicaTenant
	// digest is Digest() as of the end of Drain, computed by the drain
	// task so the coordinator only copies it.
	digest string
}

// Pool exposes the shard-owned batch pool (ownership regression test).
func (r *Replica) Pool() *workload.BatchPool { return r.pool }

// Fleet is a built deployment: replicas plus the coordinator-owned
// router and the per-tenant arrival sources.
type Fleet struct {
	cfg      Config
	replicas []*Replica
	router   *Router
	sources  []source
}

// source mints one tenant's fleet-wide arrivals. Only the mint task
// touches it, and the router reads minted only between barriers, while
// no mint task runs; no shard ever reads it.
type source struct {
	stream *trace.PoissonStream
	gen    *workload.Generator
	// at is the next not-yet-minted arrival; ok is false once the stream
	// is exhausted.
	at float64
	ok bool
	// minted holds the arrivals of the next epoch to route, in stream
	// order. The buffer is reused every epoch.
	minted []workload.Sample
}

// planScale returns the fraction of fleet-wide tenant demand replica r
// must be planned to sustain: its share of the fleet's device inventory.
func planScale(cfg Config, r int) float64 {
	total := 0
	for _, spec := range cfg.Replicas {
		total += spec.Size()
	}
	if total == 0 {
		return 0
	}
	return float64(cfg.Replicas[r].Size()) / float64(total)
}

// New builds the fleet: per replica, a multi-tenant partition of its
// cluster (tenant demand scaled by the replica's share of the fleet's
// inventory) deployed as full serving stacks with sampled ledgers and a
// shard-owned batch pool. Planning that cannot sustain the scaled demand
// retries at half the demand (twice) before failing — the router and the
// replicas' own admission control absorb the shortfall at run time.
//
// The plan is a pure function of the tenants and the replica's
// inventory, so it is solved once per distinct inventory and deployed,
// read-only, onto every replica with that inventory.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EpochDur > cfg.Horizon {
		cfg.EpochDur = cfg.Horizon
	}
	f := &Fleet{cfg: cfg, router: NewRouter(len(cfg.Replicas), len(cfg.Tenants))}
	// A tenant's exit profile does not depend on its rate, so one draw
	// serves every inventory's plan and every backoff retry.
	profs := multi.Profiles(tenantsAt(cfg, 1))
	plans := make(map[string]inventoryPlan)
	for i, spec := range cfg.Replicas {
		rep, err := buildReplica(cfg, i, spec, plans, profs)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, rep)
	}
	for ti, t := range cfg.Tenants {
		// Distinct deterministic seeds per tenant so streams and
		// difficulty draws are independent but reproducible.
		seed := cfg.Seed + int64(ti)*1_000_003
		src := source{
			stream: trace.NewPoissonStream(t.Rate, cfg.Horizon, seed),
			gen:    workload.NewGenerator(t.Dist, seed+7),
		}
		src.at, src.ok = src.stream.Next()
		f.sources = append(f.sources, src)
	}
	return f, nil
}

// mint fills every tenant's minted buffer with its arrivals up to end, in
// stream order, so IDs and difficulty draws are independent of routing.
// It runs as a pool task beside the shards: epoch e+1 is minted while
// the shards advance epoch e.
func (f *Fleet) mint(end float64) {
	for ti, t := range f.cfg.Tenants {
		src := &f.sources[ti]
		buf := src.minted[:0]
		for src.ok && src.at <= end {
			buf = append(buf, src.gen.Next(src.at, t.SLO))
			src.at, src.ok = src.stream.Next()
		}
		src.minted = buf
	}
}

// epochEnd is the barrier time closing epoch e.
func (f *Fleet) epochEnd(e int) float64 {
	return min(f.cfg.EpochDur*float64(e+1), f.cfg.Horizon)
}

// inventoryPlan is what planning yields for one replica inventory: the
// tenants at the inventory's share of fleet demand and their allocations.
// Replicas with that inventory share it and never write to it.
type inventoryPlan struct {
	tenants []multi.Tenant
	allocs  []multi.Allocation
}

// tenantsAt returns the fleet's tenants with their rates scaled by
// scale, in config order.
func tenantsAt(cfg Config, scale float64) []multi.Tenant {
	out := make([]multi.Tenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		t.Rate *= scale
		out[i] = t
	}
	return out
}

// buildReplica deploys one shard, planning its inventory first unless
// plans already holds it (keyed by cluster.Describe). profs holds
// the tenants' exit profiles in config order.
func buildReplica(cfg Config, idx int, spec ReplicaSpec, plans map[string]inventoryPlan, profs []profile.Batch) (*Replica, error) {
	clus := cluster.New(spec.GPUs, 2)
	key := cluster.Describe(spec.GPUs)
	p, ok := plans[key]
	if !ok {
		p.tenants = tenantsAt(cfg, planScale(cfg, idx))
		var err error
		if p.allocs, err = planWithBackoff(clus, p.tenants, profs); err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", idx, err)
		}
		plans[key] = p
	}
	eng := sim.NewEngine()
	// Runaway backstop scaled to this shard's expected share of events
	// (~2 events/request steady state, 8x headroom, 1M floor).
	expect := 0.0
	for _, t := range p.tenants {
		expect += t.Rate * cfg.Horizon
	}
	eng.SetEventLimit(uint64(expect)*8 + 1_000_000)
	pool := workload.NewBatchPool()
	stacks, err := multi.DeployServing(eng, clus, p.tenants, p.allocs, cfg.AuditStride, pool)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d: %w", idx, err)
	}
	rep := &Replica{Index: idx, Spec: spec, eng: eng, clus: clus, pool: pool}
	// DeployServing returns stacks in allocation order (demand-sorted);
	// re-index them into config tenant order so every coordinator walk is
	// deterministic and tenant-index addressable.
	for _, t := range cfg.Tenants {
		var st *multi.ServingTenant
		for j := range stacks {
			if stacks[j].Spec.Name == t.Name {
				st = &stacks[j]
				break
			}
		}
		if st == nil {
			return nil, fmt.Errorf("fleet: replica %d: tenant %q missing from deployment", idx, t.Name)
		}
		// Nothing reads a shard's exact latencies: the fleet reports
		// counts, and its sampled ledger keeps the tracked requests'.
		st.Coll.Lat = nil
		rt := &replicaTenant{
			st:       *st,
			capacity: st.Alloc.Plan.Goodput,
			budget:   slo.NewBudget(slo.DefaultTarget, slo.DefaultBurnThreshold),
		}
		rt.arrivals = eng.NewTimer(rt.deliver)
		rep.tenants = append(rep.tenants, rt)
	}
	return rep, nil
}

// planWithBackoff partitions a replica cluster across tenants, halving
// every tenant's demanded rate (up to twice) when the inventory cannot
// sustain it — a deliberately degraded plan beats refusing to serve.
// profs holds the tenants' exit profiles, indexed like tenants; every
// retry reuses them.
func planWithBackoff(clus *cluster.Cluster, tenants []multi.Tenant, profs []profile.Batch) ([]multi.Allocation, error) {
	scaled := make([]multi.Tenant, len(tenants))
	copy(scaled, tenants)
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var allocs []multi.Allocation
		allocs, err = multi.PlanProfiled(clus, scaled, profs)
		if err == nil {
			return allocs, nil
		}
		for i := range scaled {
			scaled[i].Rate /= 2
		}
	}
	return nil, err
}

// inject hands the stack its routed share, sitting in feed: one timer
// walks feed on the shard's engine, re-armed from its own callback for
// each next arrival, so a stack keeps at most one pending schedule. Reset
// takes the engine's next sequence number exactly as At would, so events
// order as if each arrival were scheduled by At. Unlike
// serving.FeedStream's walker, this one does not run uncontested
// arrivals inline (sim.Engine.Inline): with a shard's tenants walking
// their feeds side by side, that measured slower on fleet-hetero. Called
// by the coordinator at an epoch boundary, before the shard advances;
// feed must be sorted by arrival time (it is — routing preserves stream
// order).
func (rt *replicaTenant) inject() {
	rt.routed += len(rt.feed)
	rt.next = 0
	if len(rt.feed) > 0 {
		rt.arrivals.Reset(rt.feed[0].Arrival)
	}
}

// deliver is the arrivals timer's callback: the destination collector
// records the arrival at its virtual time, then the batcher admits or
// sheds it.
func (rt *replicaTenant) deliver() {
	s := rt.feed[rt.next]
	rt.st.Coll.Arrived(s.ID, s.Arrival)
	rt.st.Batcher.Arrive(s)
	rt.next++
	if rt.next < len(rt.feed) {
		rt.arrivals.Reset(rt.feed[rt.next].Arrival)
	}
}

// Advance runs the shard's event loop to the barrier time. It is the
// unit the shard runner parallelizes; everything it touches is owned by
// this shard.
func (r *Replica) Advance(until float64) error {
	return r.eng.Run(until)
}

// Drain finishes the shard after the last epoch: drain every tenant's
// batcher and pipeline (serving.Drain), close the goodput meters at the
// final clock, and record the shard's digest.
func (r *Replica) Drain() error {
	batchers := make([]*serving.Batcher, len(r.tenants))
	pipes := make([]scheduler.Runner, len(r.tenants))
	for i, rt := range r.tenants {
		batchers[i], pipes[i] = rt.st.Batcher, rt.st.Pipe
	}
	err := serving.Drain(r.eng, batchers, pipes...)
	for _, rt := range r.tenants {
		rt.st.Coll.Good.CloseAt(r.eng.Now())
	}
	r.digest = r.Digest()
	return err
}

// Digest canonically serializes the shard's state: every tenant ledger's
// digest in config-tenant order. Equal digests mean byte-identical shard
// executions.
func (r *Replica) Digest() string {
	// Size the result once for every ledger, then render each straight
	// into it.
	size := 0
	for _, rt := range r.tenants {
		size += len("tenant \n") + len(rt.st.Spec.Name) + rt.st.Coll.Audit.DigestSize()
	}
	var b strings.Builder
	b.Grow(size)
	for _, rt := range r.tenants {
		b.WriteString("tenant ")
		b.WriteString(rt.st.Spec.Name)
		b.WriteByte('\n')
		rt.st.Coll.Audit.WriteDigest(&b)
	}
	return b.String()
}
