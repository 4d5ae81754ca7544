package main

import (
	"fmt"
	"time"

	"e3/internal/audit"
	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/experiments"
	"e3/internal/fleet"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/multi"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/replan"
	"e3/internal/sim"
	"e3/internal/trace"
	"e3/internal/workload"
)

// Probe sizes (-smoke runs a fifth of each). Each ladder runs
// ladderRounds rounds of its rungs and reports medians over rounds.
const (
	churnEvents   = 2_000_000
	auditHorizon  = 120.0
	ladderRounds  = 5
	planCalls     = 20
	fleetNewCalls = 5
)

// tracedJob is the traced child: the workload's own traced run, then the
// probes that price the layers it cannot reach alone. Every layer metric
// is filled on every workload; README says which were measured where.
func tracedJob(w workloadDef, seed int64, scale float64) tracedResult {
	r := w.traced(seed, scale)
	r.Layers["sim.churn_ns_per_event"] = churnNsPerEvent(max(1000, int(churnEvents*scale)))
	auditLadder(&r, seed, scale)
	planMs := optimizerProbe(&r)
	observerLadder(&r, seed, scale, planMs)
	fleetProbe(&r, seed, scale)
	return r
}

// churnNsPerEvent prices the engine alone: 64 self-rescheduling no-op
// events, stepped until about n have run.
func churnNsPerEvent(n int) float64 {
	eng := sim.NewEngine()
	fired := 0
	const live = 64
	for i := 0; i < live; i++ {
		d := 1e-3 * float64(i+1) / live
		var tick func()
		tick = func() {
			fired++
			if fired <= n-live {
				eng.After(d, tick)
			}
		}
		eng.After(d, tick)
	}
	c, _ := measure(func() error {
		for eng.Step() {
		}
		return nil
	})
	return c.scaledWall() * 1e9 / float64(eng.Processed())
}

// ladder holds one measurement per rung per round: [round][rung].
type ladder [][]cost

// runLadder measures every rung once per round, reversing the order
// every other round so that drift in host speed cancels out of the
// paired differences.
func runLadder(rungs int, run func(rung int) (cost, error)) (ladder, error) {
	l := make(ladder, ladderRounds)
	for round := range l {
		l[round] = make([]cost, rungs)
		for i := 0; i < rungs; i++ {
			rung := i
			if round%2 == 1 {
				rung = rungs - 1 - i
			}
			c, err := run(rung)
			if err != nil {
				return nil, err
			}
			l[round][rung] = c
		}
	}
	return l, nil
}

// delta is the median over rounds of rung b's field minus rung a's.
func (l ladder) delta(a, b int, field func(cost) float64) float64 {
	d := make([]float64, len(l))
	for i, round := range l {
		d[i] = field(round[b]) - field(round[a])
	}
	return median(d)
}

// ratio is the median over rounds of rung a's field over rung b's.
func (l ladder) ratio(a, b int, field func(cost) float64) float64 {
	d := make([]float64, len(l))
	for i, round := range l {
		d[i] = field(round[a]) / field(round[b])
	}
	return median(d)
}

func wallOf(c cost) float64    { return c.scaledWall() }
func mallocsOf(c cost) float64 { return c.mallocs }
func bytesOf(c cost) float64   { return c.bytes }

// auditLadder prices the lifecycle ledger on cluster-steady at 120 s:
// no ledger, then stride 1000, then stride 1 (exhaustive). The rungs must
// simulate the same run; only the ledger differs.
func auditLadder(r *tracedResult, seed int64, scale float64) {
	cfg := clusterConfig(steadyRate, auditHorizon*scale, seed)
	plan, err := experiments.PlanSimBench(cfg)
	if err != nil {
		r.fail("audit ladder: %v", err)
		return
	}
	strides := []int64{0, 1000, 1}
	var first *outcome
	l, err := runLadder(len(strides), func(rung int) (cost, error) {
		var ledger *audit.Ledger
		if strides[rung] > 0 {
			ledger = audit.NewSampledLedger(strides[rung])
		}
		s, err := newClusterStack(cfg, plan, ledger, false)
		if err != nil {
			return cost{}, err
		}
		c, err := measure(s.serve)
		out := s.outcome()
		for _, f := range out.Failures {
			r.fail("audit ladder stride %d: %s", strides[rung], f)
		}
		if first == nil {
			first = &out
		} else if out.Served != first.Served || out.Completions != first.Completions || out.Events != first.Events {
			r.fail("audit ladder stride %d simulated a different run", strides[rung])
		}
		return c, err
	})
	if err != nil {
		r.fail("audit ladder: %v", err)
		return
	}
	req := float64(first.Requests)
	r.Layers["audit.sampled_ns_per_req"] = l.delta(0, 1, wallOf) * 1e9 / req
	r.Layers["audit.exhaustive_ns_per_req"] = l.delta(0, 2, wallOf) * 1e9 / req
	r.Layers["audit.exhaustive_bytes_per_req"] = l.delta(0, 2, bytesOf) / req
}

// clusterPlanConfig is the planning problem experiments.PlanSimBench
// solves, built here so the optimizer can be timed alone.
func clusterPlanConfig() optimizer.Config {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	mix := workload.Mix(0.8)
	return optimizer.Config{
		Model: m, Profile: profile.FromDist(m, mix, 8000, 1), Batch: 8,
		Cluster: cluster.Homogeneous(gpu.V100, 8),
		SLO:     sloS, SlackFrac: slackFrac, MinExitFrac: optimizer.DefaultMinExitFrac,
		Pipelining: true, ModelParallel: true,
	}
}

// optimizerProbe times the cost-table build and the full search on the
// cluster-* planning problem, and returns the search's median in ms.
func optimizerProbe(r *tracedResult) float64 {
	cfg := clusterPlanConfig()
	want, err := experiments.PlanSimBench(experiments.DefaultSimBench())
	if err != nil {
		r.fail("optimizer probe: %v", err)
		return 0
	}
	if got, err := optimizer.MaximizeGoodput(cfg); err != nil || got.String() != want.String() {
		r.fail("optimizer probe: plan %q differs from PlanSimBench's %q (err %v)", got.String(), want.String(), err)
		return 0
	}
	tableMs, _ := medianMs(planCalls, func() error {
		optimizer.NewCostTableFor(cfg)
		return nil
	})
	planMs, err := medianMs(planCalls, func() error {
		_, err := optimizer.MaximizeGoodput(cfg)
		return err
	})
	if err != nil {
		r.fail("optimizer probe: %v", err)
	}
	r.Layers["optimizer.cost_table_ms"] = tableMs
	r.Layers["optimizer.plan_ms"] = planMs
	return planMs
}

// observerLadder prices the observers on the drifting replan demo: none,
// then + tracer, + attribution, + flame profiler. The observers must not
// change what the loop simulated.
func observerLadder(r *tracedResult, seed int64, scale float64, planMs float64) {
	windows := replanWindowsFor(scale)
	const rungs = 4
	var fingerprint string
	var top *replan.Result
	var requests int
	l, err := runLadder(rungs, func(rung int) (cost, error) {
		cfg := replanConfig(windows, seed, rung)
		var res *replan.Result
		c, err := measure(func() (err error) {
			res, err = replan.Run(cfg)
			return err
		})
		if err != nil {
			return c, err
		}
		out := replanOutcome(cfg, res)
		for _, f := range out.Failures {
			r.fail("observer ladder rung %d: %s", rung, f)
		}
		if fingerprint == "" {
			fingerprint = out.Digest
		} else if out.Digest != fingerprint {
			r.fail("observer ladder rung %d simulated a different run", rung)
		}
		if rung == rungs-1 {
			top, requests = res, out.Requests
		}
		return c, nil
	})
	if err != nil {
		r.fail("observer ladder: %v", err)
		return
	}
	req := float64(requests)
	// Rung i+1 adds the observer whose metrics are prefix i.
	for i, prefix := range []string{"telemetry.", "slo.attr_", "flame."} {
		r.Layers[prefix+"ns_per_req"] = l.delta(i, i+1, wallOf) * 1e9 / req
		r.Layers[prefix+"allocs_per_req"] = l.delta(i, i+1, mallocsOf) / req
	}
	topWall := make([]float64, len(l))
	for i, round := range l {
		topWall[i] = round[rungs-1].scaledWall()
	}
	r.Layers["replan.replans"] = float64(top.Replans)
	r.Layers["replan.plan_cache_hits"] = float64(top.PlanCacheHits)
	r.Layers["replan.plan_share"] = float64(top.Replans) * planMs / (median(topWall) * 1e3)
}

// fleetProbe prices the fleet tier on fleet-hetero's horizon: planning,
// fleet.New, 1 versus 2 shard workers, and one shard run alone against
// the same shard behind the router.
func fleetProbe(r *tracedResult, seed int64, scale float64) {
	horizon := fleetHorizon * scale
	hetero := func(workers int) fleet.Config { return fleetConfig(4, workers, horizon, seed) }
	single := fleetConfig(1, 1, horizon, seed)
	tenants := multiTenants(single)
	newMs, err := medianMs(fleetNewCalls, func() error { _, err := fleet.New(hetero(fleetWorkers())); return err })
	var planMs, singleNewMs float64
	if err == nil {
		planMs, err = medianMs(fleetNewCalls, func() error {
			_, err := multi.Plan(cluster.New(single.Replicas[0].GPUs, 2), tenants)
			return err
		})
	}
	if err == nil {
		singleNewMs, err = medianMs(fleetNewCalls, func() error { _, err := fleet.New(single); return err })
	}
	if err != nil {
		r.fail("fleet probe: %v", err)
		return
	}

	// Rungs: fleet-hetero on 1 worker, on fleetWorkers(), the lone
	// replica without a router, and the 1-shard fleet.
	var one, two *fleet.Result
	var aloneReqs, singleReqs int
	l, err := runLadder(4, func(rung int) (cost, error) {
		switch rung {
		case 0:
			return measure(func() (err error) { one, err = fleet.Run(hetero(1)); return err })
		case 1:
			return measureOn(fleetWorkers(), func() (err error) { two, err = fleet.Run(hetero(fleetWorkers())); return err })
		case 2:
			n, c, err := shardAlone(single)
			aloneReqs = n
			return c, err
		default:
			var res *fleet.Result
			c, err := measure(func() (err error) { res, err = fleet.Run(single); return err })
			if err == nil {
				singleReqs = res.Minted
				// fleet.Run starts with a fleet.New; take it out.
				c.wall -= singleNewMs / 1e3 * c.speed()
			}
			return c, err
		}
	})
	if err != nil {
		r.fail("fleet probe: %v", err)
		return
	}
	if one.Digests() != two.Digests() {
		r.fail("fleet probe: 1 and %d workers simulated different runs", fleetWorkers())
	}
	nsPerReq := func(c cost, n int) float64 { return c.scaledWall() * 1e9 / float64(n) }
	alone := make([]float64, len(l))
	coord := make([]float64, len(l))
	for i, round := range l {
		alone[i] = nsPerReq(round[2], aloneReqs)
		coord[i] = nsPerReq(round[3], singleReqs) - alone[i]
	}
	r.Layers["multi.plan_ms"] = planMs
	r.Layers["fleet.new_ms"] = newMs
	r.Layers["fleet.speedup"] = l.ratio(0, 1, wallOf)
	r.Layers["fleet.shard_ns_per_req"] = median(alone)
	r.Layers["fleet.coord_ns_per_req"] = median(coord)
	r.Layers["fleet.epochs"] = float64(two.Epochs)
	r.Layers["fleet.door_shed_frac"] = float64(two.DoorShed) / float64(two.Minted)
	r.Layers["fleet.events_per_req"] = float64(two.Events) / float64(two.Minted)
}

func medianMs(n int, fn func() error) (float64, error) {
	ms := make([]float64, n)
	c, err := measure(func() error {
		for i := range ms {
			t0 := time.Now()
			if err := fn(); err != nil {
				return err
			}
			ms[i] = time.Since(t0).Seconds() * 1e3
		}
		return nil
	})
	return median(ms) / c.speed(), err
}

// multiTenants restates a one-replica fleet's tenants for package multi;
// a lone replica plans for the whole fleet-wide demand.
func multiTenants(cfg fleet.Config) []multi.Tenant {
	out := make([]multi.Tenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		out[i] = multi.Tenant{Name: t.Name, Model: t.Model, Dist: t.Dist, Rate: t.Rate, SLO: t.SLO, Batch: t.Batch}
	}
	return out
}

// shardAlone serves a one-replica fleet's traffic with no router: the
// replica is planned and deployed through multi.Plan and
// multi.DeployServing, each tenant's arrivals are minted up front from
// the seeds fleet.New gives its streams, and they reach the batchers the
// way the fleet injects them. It returns the requests served and the cost
// of the event loop alone.
func shardAlone(cfg fleet.Config) (int, cost, error) {
	clus := cluster.New(cfg.Replicas[0].GPUs, 2)
	tenants := multiTenants(cfg)
	allocs, err := multi.Plan(clus, tenants)
	if err != nil {
		return 0, cost{}, err
	}
	eng := sim.NewEngine()
	stacks, err := multi.DeployServing(eng, clus, tenants, allocs, cfg.AuditStride, workload.NewBatchPool())
	if err != nil {
		return 0, cost{}, err
	}
	requests := 0
	for ti, t := range cfg.Tenants {
		seed := cfg.Seed + int64(ti)*1_000_003
		st := trace.NewPoissonStream(t.Rate, cfg.Horizon, seed)
		gen := workload.NewGenerator(t.Dist, seed+7)
		var samples []workload.Sample
		for at, ok := st.Next(); ok; at, ok = st.Next() {
			samples = append(samples, gen.Next(at, t.SLO))
		}
		requests += len(samples)
		for j := range stacks {
			if stacks[j].Spec.Name == t.Name {
				inject(eng, &stacks[j], samples)
			}
		}
	}
	c, err := measure(func() error {
		err := eng.RunAll()
		for _, st := range stacks {
			st.Batcher.Flush()
		}
		for _, st := range stacks {
			st.Pipe.FlushAll()
		}
		if err2 := eng.RunAll(); err == nil {
			err = err2
		}
		return err
	})
	if err != nil {
		return 0, cost{}, err
	}
	for _, st := range stacks {
		if rep := st.Coll.AuditReport(); !rep.OK() {
			return 0, cost{}, fmt.Errorf("shard alone: tenant %s: %w", st.Spec.Name, rep.Err())
		}
	}
	return requests, c, nil
}

// inject schedules one tenant's arrivals as a single self-rescheduling
// event chain: record the arrival in the ledger, then hand it to the
// batcher.
func inject(eng *sim.Engine, st *multi.ServingTenant, samples []workload.Sample) {
	if len(samples) == 0 {
		return
	}
	i := 0
	var step func()
	step = func() {
		s := samples[i]
		st.Coll.Audit.Arrived(s.ID, eng.Now())
		st.Batcher.Arrive(s)
		i++
		if i < len(samples) {
			eng.At(samples[i].Arrival, step)
		}
	}
	eng.At(samples[0].Arrival, step)
}
