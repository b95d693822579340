package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"rmq/internal/api"
	"rmq/internal/cost"
	"rmq/internal/quality"
	"rmq/internal/server"
	"rmq/perfbench/spec"
)

const (
	// warmRate is serve-warm's open-loop arrival rate (req/s).
	warmRate = 4.0
	// warmIterations is the warm request budget; primeIterations the
	// budget of the one cold request per store during set-up.
	warmIterations  = 40
	primeIterations = 400
	// warmCacheBudget is rmqd's MaxCacheBytes for serve-warm; the stores
	// outgrow it during the run, so shedding is exercised.
	warmCacheBudget = 16 << 20
	// primeSeed seeds the set-up requests.
	primeSeed = 7
)

// warmSetup starts rmqd, registers the serve-warm catalogs and primes
// each of their stores with one cold request. It returns the catalog ids
// and the registration times in ms.
func warmSetup(c *conn) ([]string, []float64, error) {
	var ids []string
	var regs []float64
	for _, cat := range spec.WarmCatalogs {
		begin := time.Now()
		id, err := c.register(&api.CatalogRequest{Name: cat.Name, Generate: cat.Request()})
		if err != nil {
			return nil, nil, err
		}
		regs = append(regs, ms(time.Since(begin)))
		ids = append(ids, id)
	}
	seed := uint64(primeSeed)
	for _, id := range ids {
		for _, m := range spec.WarmSubsets {
			req := api.OptimizeRequest{Catalog: id, MaxIterations: primeIterations, Metrics: m, Parallelism: 1, Seed: &seed}
			var resp api.OptimizeResponse
			if err := c.callJSON("POST", "/optimize", &req, http.StatusOK, &resp); err != nil {
				return nil, nil, fmt.Errorf("priming: %w", err)
			}
			if _, err := checkResponse(&resp, &req); err != nil {
				return nil, nil, fmt.Errorf("priming: %w", err)
			}
		}
	}
	return ids, regs, nil
}

// serveWarm is the headline serving path: a seeded Poisson open loop of
// warm /optimize requests against long-lived, primed catalogs whose
// shared stores keep growing.
func serveWarm(o options) (rep *report, err error) {
	refs, err := spec.LoadReferences()
	if err != nil {
		return nil, err
	}
	// refOf[catalog][subset] is the reference frontier to score against.
	refOf := make([][][]cost.Vector, len(spec.WarmCatalogs))
	for i, c := range spec.WarmCatalogs {
		for _, m := range spec.WarmSubsets {
			ref, err := refs.Lookup(c, m)
			if err != nil {
				return nil, err
			}
			refOf[i] = append(refOf[i], ref)
		}
	}

	var ids []string
	var regs []float64
	d, setups, err := setUpRMQD(server.Config{MaxCacheBytes: warmCacheBudget}, func(d *rmqd) (err error) {
		ids, regs, err = warmSetup(d.conn)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping rmqd: %w", serr)
		}
	}()
	load := d.conn
	before, err := load.stats()
	if err != nil {
		return nil, err
	}
	span := time.Duration(o.seconds * float64(time.Second))
	n := int(warmRate * o.seconds)
	due := poissonSchedule(newRand(o.seed, 0), n, span)
	seeds := distinctSeeds(o.seed, n)
	algo := ""
	if o.trace {
		algo = tracedAlgorithm
	}
	reqs := make([]api.OptimizeRequest, n)
	bodies := make([][]byte, n)
	// Requests cycle through every catalog and subset in a fixed order,
	// so each store receives the same requests on every seed and grows
	// the same way; the seed moves arrival times and run seeds.
	cats, subsets := make([]int, n), make([]int, n)
	for i := range reqs {
		cats[i], subsets[i] = i%len(ids), i/len(ids)%len(spec.WarmSubsets)
		reqs[i] = api.OptimizeRequest{
			Catalog:       ids[cats[i]],
			MaxIterations: warmIterations,
			Metrics:       spec.WarmSubsets[subsets[i]],
			Parallelism:   1,
			Seed:          &seeds[i],
			Algorithm:     algo,
		}
		if bodies[i], err = json.Marshal(&reqs[i]); err != nil {
			return nil, err
		}
	}

	runtime.GC() // the load starts from a collected heap
	var heap *heapSampler
	if o.trace {
		heap = startHeapSampler()
	}
	rtBefore := readRuntime()
	hostBefore, err := readHost()
	if err != nil {
		return nil, err
	}
	results := make([]served, n)
	start := time.Now()
	timings := openLoop(start, due, func(i int) {
		s := &results[i]
		s.start = time.Since(start)
		s.status, s.body, s.err = load.call("POST", "/optimize", bodies[i])
		s.end = time.Since(start)
	})
	rtAfter := readRuntime()
	hostAfter, err := readHost()
	if err != nil {
		return nil, err
	}
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.done()
	}
	after, err := load.stats()
	if err != nil {
		return nil, err
	}

	rep = newReport()
	rep.attempted = n
	var sizes []float64
	m := opSamples{setups: setups}
	for i, s := range results {
		m.latMS = append(m.latMS, ms(timings[i].latency()))
		m.cpuMS = append(m.cpuMS, ms(timings[i].cpu))
		m.optWall += s.end - s.start
		m.optCPU += timings[i].cpu
		sizes = append(sizes, float64(len(s.body)))
		resp, err := optimizeResult(s)
		if err == nil {
			m.iters += resp.Iterations
			var vecs []cost.Vector
			if vecs, err = checkResponse(resp, &reqs[i]); err == nil {
				m.eps = append(m.eps, quality.Epsilon(vecs, refOf[cats[i]][subsets[i]]))
			}
		}
		if err != nil {
			rep.fail("serve-warm request %d: %v", i, err)
		}
	}
	if err := endToEndMetrics(rep, &m); err != nil {
		return nil, err
	}
	loadLayers(rep, timings)
	hostLayers(rep, hostBefore, hostAfter)
	if !o.trace {
		return rep, nil
	}

	traced := make([]tracedOp, n)
	for i, s := range results {
		traced[i] = tracedOp{key: seeds[i], start: toTracer(start, s.start), end: toTracer(start, s.end)}
	}
	meanStep := coreLayers(rep, traced, tracing.byKey(), spanCost())
	v := rep.values
	setsBefore, sets, plans, retention := 0, 0, 0, 0.0
	for _, c := range before.Catalogs {
		setsBefore += c.Cache.Sets
	}
	for _, c := range after.Catalogs {
		sets += c.Cache.Sets
		plans += c.Cache.Plans
		retention = max(retention, c.EffectiveRetention)
	}
	v["cache.sets_end"], v["cache.plans_end"] = float64(sets), float64(plans)
	v["cache.bytes_mb_end"] = float64(after.CacheBytes) / (1 << 20)
	v["cache.sets_per_op"] = float64(sets-setsBefore) / float64(n)
	v["cache.shed_events"] = float64(after.ShedEvents - before.ShedEvents)
	v["cache.effective_retention"] = retention
	v["server.reject_ratio"] = float64(after.Rejected-before.Rejected) / float64(n)
	runtimeLayers(rep, rtBefore, rtAfter, n, heapPeak)
	metrics, err := spec.ParseMetrics(spec.AllThree)
	if err != nil {
		return nil, err
	}
	climbUS, randUS := probeClimb(spec.WarmCatalogs[0].Generate(), metrics, warmIterations, o.seed)
	v["climb.us_per_call"], v["randplan.us_per_call"] = climbUS, randUS
	v["core.frontier_est_us_per_step"] = meanStep - climbUS - randUS
	v["catalog.register_ms_p50"] = median(regs)
	v["response.bytes_p50"] = median(sizes)
	// serve-warm restores no snapshots under load, so the traced run
	// times the snapshot layer on the side: a few tenants register the
	// first catalog with an inline snapshot of its primed store, optimize
	// warm once and leave.
	snap, err := newTenant(spec.WarmCatalogs[0])
	if err != nil {
		return nil, err
	}
	var restores []float64
	for r := 0; r < restoreRounds; r++ {
		took, err := restoreTenant(load, &snap, uint64(r))
		if err != nil {
			rep.fail("serve-warm snapshot tenant: %v", err)
			continue
		}
		restores = append(restores, ms(took))
	}
	v["restore_p50_ms"] = median(restores)
	if err := snapshotLayers(rep, &snap); err != nil {
		return nil, err
	}
	return rep, nil
}
