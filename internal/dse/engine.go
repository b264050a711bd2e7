package dse

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpsoc"
	"repro/internal/obs"
	"repro/internal/solstore"
)

// Workload is one prepared benchmark of the sweep: the analysis
// artifacts (compiled program, profile, HTG) are built once and shared
// read-only by every sweep point.
type Workload struct {
	Name     string
	Prepared *experiments.Prepared
	// Hash is the canonical HTG hash, the program's cache-key component.
	Hash string
}

// PrepareWorkload compiles, profiles and hashes one named bundled
// benchmark via the experiments package's prepared-benchmark path.
func PrepareWorkload(p *experiments.Prepared) *Workload {
	return &Workload{Name: p.Bench.Name, Prepared: p, Hash: HTGHash(p.Graph)}
}

// SweepConfig is the default parallelizer budget for sweep points: a
// much smaller problem size (clustering, candidate and task-bound caps)
// and branch-and-bound allowance than the single-program default — the
// sweep solves hundreds of pipelines, each within a few percent of its
// full-budget solution. Its work budget sits about 50x above the
// heaviest sweep solve measured on the default space (2.1M pivot-rows),
// so the node cap, never the work budget, truncates searches
// (TestSweepConfigBudgetDoesNotBind).
func SweepConfig() core.Config {
	return core.Config{
		MaxItemsPerILP:    8,
		MaxCandsPerClass:  3,
		MaxTasksPerRegion: 4,
		MaxILPNodes:       60,
		ILPWorkBudget:     100_000_000,
		ILPRelGap:         0.05,
	}
}

// Engine runs the sweep: every (point, workload) pair is one job on a
// bounded worker pool.
type Engine struct {
	// Workers bounds pool size (default runtime.NumCPU()).
	Workers int
	// Config is the parallelizer configuration (default SweepConfig()).
	Config core.Config
	// GA tunes the genetic-algorithm baseline (defaults apply).
	GA GAConfig
	// Seed derives every stochastic decision (the GA's randomness);
	// equal seeds give byte-identical sweep results.
	Seed int64
	// Cache, when non-nil, short-circuits repeated evaluations.
	Cache *Cache
	// Store, when non-nil, is the shared region-solve store threaded
	// into every evaluation's parallelizer config so neighboring sweep
	// points reuse region subproblems (and, when Cache is nil, it also
	// serves as the interior of the run's whole-solution cache). When
	// nil, the run shares the cache's interior store instead, so the
	// two layers always cooperate by default.
	Store *solstore.Store
	// Obs receives phase spans and solver/cache metrics (may be nil).
	Obs *obs.Observer
	// SkipAudit disables the per-evaluation race-and-budget audit of every
	// produced solution (internal/analysis); cached rows are re-audited on
	// recall only through their original evaluation.
	SkipAudit bool
}

// Row is one evaluated (point, workload) pair.
type Row struct {
	Point    Point
	Bench    string
	Outcome  Outcome
	CacheHit bool
}

// PointSummary aggregates one point across all workloads.
type PointSummary struct {
	Point Point
	// Cores is the platform's total core count.
	Cores int
	// GeoSpeedup is the geometric-mean measured speedup across
	// workloads (the sweep's merit figure).
	GeoSpeedup float64
	// MeanEnergyUJ is the arithmetic-mean simulated energy.
	MeanEnergyUJ float64
	// Limit is the platform's theoretical speedup bound for the
	// scenario.
	Limit float64
	// MedianGAGapPct is the median GA-vs-ILP objective gap.
	MedianGAGapPct float64
	// Pareto marks membership in the sweep's Pareto front.
	Pareto bool
}

// SweepResult is the complete outcome of one sweep.
type SweepResult struct {
	Rows      []Row
	Summaries []PointSummary
	// Front is the Pareto-optimal subset of Summaries under
	// (maximize GeoSpeedup, minimize Cores, minimize MeanEnergyUJ),
	// best speedup first.
	Front []PointSummary
	// CacheHits / CacheMisses count this run's whole-solution cache
	// outcomes.
	CacheHits, CacheMisses int
	// RegionHits / RegionMisses / RegionDedups count this run's
	// region-solve store outcomes (whole-solution cache traffic
	// excluded): hits are region ILPs served from the shared store
	// instead of re-solved, dedups are concurrent duplicate solves
	// collapsed in flight. Cross-point reuse shows up here — two
	// points sharing a platform share their entire region workload.
	RegionHits, RegionMisses, RegionDedups int
	// Workloads lists the swept benchmark names in order.
	Workloads []string
}

// HitRate returns the run's cache hit rate in [0, 1].
func (r *SweepResult) HitRate() float64 {
	n := r.CacheHits + r.CacheMisses
	if n == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(n)
}

// RegionHitRate returns the run's region-solve store hit rate in
// [0, 1].
func (r *SweepResult) RegionHitRate() float64 {
	n := r.RegionHits + r.RegionMisses
	if n == 0 {
		return 0
	}
	return float64(r.RegionHits) / float64(n)
}

// MedianGAGapPct returns the median per-row GA-vs-ILP gap of the sweep.
func (r *SweepResult) MedianGAGapPct() float64 {
	gaps := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		gaps = append(gaps, row.Outcome.GAGapPct)
	}
	return median(gaps)
}

// Run executes the sweep over points × workloads. Jobs are independent
// and scheduled on min(Workers, NumCPU-bounded default) goroutines; a
// cancelled context stops the sweep at the next job boundary and
// returns the context error. The result is deterministic for equal
// (points, workloads, Config, GA, Seed) regardless of worker count.
func (e *Engine) Run(ctx context.Context, points []Point, workloads []*Workload) (*SweepResult, error) {
	if len(points) == 0 || len(workloads) == 0 {
		return nil, fmt.Errorf("dse: empty sweep (%d points, %d workloads)", len(points), len(workloads))
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU() //repolint:allow numcpu (pool width only: points are independent and folded in point order)
	}
	store := e.Store
	cache := e.Cache
	if cache == nil {
		cache = NewCacheOn(store, "", e.Obs.M())
	}
	if store == nil {
		store = cache.Store()
	}
	sweep := e.Obs.T().Start("dse-sweep",
		obs.Int("points", len(points)),
		obs.Int("workloads", len(workloads)),
		obs.Int("workers", workers))
	defer sweep.End()

	type job struct{ pi, wi int }
	jobs := make([]job, 0, len(points)*len(workloads))
	for pi := range points {
		for wi := range workloads {
			jobs = append(jobs, job{pi, wi})
		}
	}
	rows := make([]Row, len(jobs))
	jobCh := make(chan int)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	startHits, startMisses := cache.Stats()
	startStore := store.Stats()
	startTrafHits, startTrafMisses := cache.StoreTraffic()
	// Live sweep progress for the /metrics scrape surface: completed
	// jobs, throughput, remaining-work ETA and the running cache hit
	// ratio. All derived read-only from job completions — telemetry
	// only, never an input to any evaluation.
	m := e.Obs.M()
	completed := m.Counter("dse.points.completed")
	m.Gauge("dse.points.total").Set(float64(len(jobs)))
	sweepStart := time.Now() //repolint:allow timenow (throughput/ETA telemetry only)
	noteProgress := func() {
		if m == nil {
			return
		}
		done := float64(completed.Value())
		elapsed := time.Since(sweepStart).Seconds() //repolint:allow timenow
		if elapsed > 0 {
			rate := done / elapsed
			m.Gauge("dse.points.per_sec").Set(rate)
			if rate > 0 {
				m.Gauge("dse.sweep.eta_seconds").Set((float64(len(jobs)) - done) / rate)
			}
		}
		liveHits, liveMisses := cache.Stats()
		if n := liveHits - startHits + liveMisses - startMisses; n > 0 {
			m.Gauge("dse.cache.hit_ratio").Set(float64(liveHits-startHits) / float64(n))
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range jobCh {
				j := jobs[ji]
				row, err := e.evaluate(points[j.pi], workloads[j.wi], cache, store)
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					continue
				}
				rows[ji] = row
				completed.Inc()
				noteProgress()
			}
		}()
	}
	cancelled := false
feed:
	for ji := range jobs {
		// Check cancellation before offering the job so an
		// already-cancelled context never schedules new work (a select
		// with two ready cases picks randomly).
		select {
		case <-ctx.Done():
			cancelled = true
			break feed
		default:
		}
		select {
		case <-ctx.Done():
			cancelled = true
			break feed
		case jobCh <- ji:
		}
	}
	close(jobCh)
	wg.Wait()
	if cancelled {
		return nil, ctx.Err()
	}
	if firstEr != nil {
		return nil, firstEr
	}
	endHits, endMisses := cache.Stats()
	endStore := store.Stats()

	res := &SweepResult{Rows: rows, CacheHits: endHits - startHits, CacheMisses: endMisses - startMisses}
	// The store's counters mix region-solve traffic with the cache's
	// own lookups when the two layers share it; subtract the cache's
	// contribution so the Region* counters isolate region reuse.
	res.RegionHits = int(endStore.Hits - startStore.Hits)
	res.RegionMisses = int(endStore.Misses - startStore.Misses)
	res.RegionDedups = int(endStore.Dedups - startStore.Dedups)
	if cache.Store() == store {
		endTrafHits, endTrafMisses := cache.StoreTraffic()
		res.RegionHits -= endTrafHits - startTrafHits
		res.RegionMisses -= endTrafMisses - startTrafMisses
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, w.Name)
	}
	res.Summaries = summarize(points, workloads, rows)
	res.Front = ParetoFront(res.Summaries)
	mark := map[string]bool{}
	for _, s := range res.Front {
		mark[s.Point.ID] = true
	}
	for i := range res.Summaries {
		res.Summaries[i].Pareto = mark[res.Summaries[i].Point.ID]
	}
	e.Obs.M().Gauge("dse.cache.hit_rate").Set(res.HitRate())
	e.Obs.M().Gauge("dse.region_store.hit_rate").Set(res.RegionHitRate())
	e.Obs.M().Gauge("dse.ga.median_gap_pct").Set(res.MedianGAGapPct())
	sweep.SetAttr(
		obs.Int("cache_hits", res.CacheHits),
		obs.Int("cache_misses", res.CacheMisses),
		obs.Int("region_hits", res.RegionHits),
		obs.Int("region_misses", res.RegionMisses),
		obs.Int("region_dedups", res.RegionDedups),
		obs.Float("ga_median_gap_pct", res.MedianGAGapPct()))
	return res, nil
}

// evaluate runs (or recalls) one sweep job: ILP parallelization,
// simulation, and the GA baseline with its quality gap.
func (e *Engine) evaluate(pt Point, w *Workload, cache *Cache, store *solstore.Store) (Row, error) {
	mainClass := pt.Scenario.MainClass(pt.Platform)
	key := CacheKey(w.Hash, pt.Platform, mainClass, e.Config)
	if out, ok := cache.Get(key); ok {
		return Row{Point: pt, Bench: w.Name, Outcome: out, CacheHit: true}, nil
	}
	span := e.Obs.T().Start("dse-point",
		obs.String("point", pt.ID), obs.String("bench", w.Name))
	defer span.End()
	start := time.Now() //repolint:allow timenow (row-duration telemetry only)

	cfg := e.Config
	cfg.Metrics = e.Obs.M()
	cfg.Events = e.Obs.E()
	if cfg.Store == nil {
		// Share region subproblems across sweep points: two points on
		// the same platform (or any pair whose regions reduce to the
		// same solver-visible numbers) reuse each other's region
		// solves. Output-neutral, so the whole-solution CacheKey is
		// unaffected.
		cfg.Store = store
	}
	if !e.SkipAudit {
		cfg.Audit = analysis.AuditResult
	}
	res, err := core.Parallelize(w.Prepared.Graph, pt.Platform, mainClass, core.Heterogeneous, cfg)
	if err != nil {
		return Row{}, fmt.Errorf("dse: %s on %s: %w", w.Name, pt.ID, err)
	}
	sim := mpsoc.New(pt.Platform, false)
	meas, err := sim.Run(res.Best, mainClass)
	if err != nil {
		return Row{}, fmt.Errorf("dse: simulate %s on %s: %w", w.Name, pt.ID, err)
	}
	seq := sim.SequentialBaseline(w.Prepared.Graph, mainClass)
	ilpEst := res.EstimatedSpeedup(w.Prepared.Graph)
	ga := RunGA(w.Prepared.Graph, pt.Platform, mainClass, e.GA, gaSeed(e.Seed, key))
	gap := 0.0
	if ilpEst > 0 {
		gap = 100 * (ilpEst - ga.Speedup) / ilpEst
	}
	out := Outcome{
		Speedup:            mpsoc.Speedup(seq, meas.MakespanNs),
		EstimatedSpeedup:   ilpEst,
		MakespanNs:         meas.MakespanNs,
		SequentialNs:       seq,
		EnergyUJ:           meas.EnergyUJ,
		SequentialEnergyUJ: sim.SequentialEnergyUJ(w.Prepared.Graph, mainClass),
		NumTasks:           res.Best.NumTasks,
		NumILPs:            res.Stats.NumILPs,
		GASpeedup:          ga.Speedup,
		GAGapPct:           gap,
	}
	if err := cache.Put(key, out); err != nil {
		return Row{}, err
	}
	e.Obs.M().Histogram("dse.point.duration").Observe(time.Since(start))
	span.SetAttr(obs.Float("speedup", out.Speedup), obs.Float("ga_gap_pct", gap))
	return Row{Point: pt, Bench: w.Name, Outcome: out}, nil
}

// gaSeed mixes the sweep seed with a job's cache key so each job gets
// an independent, order-insensitive random stream.
func gaSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return int64(h.Sum64())
}

// summarize folds rows into per-point aggregates in point order.
func summarize(points []Point, workloads []*Workload, rows []Row) []PointSummary {
	nw := len(workloads)
	out := make([]PointSummary, len(points))
	for pi, pt := range points {
		s := PointSummary{
			Point: pt,
			Cores: pt.Platform.NumCores(),
			Limit: pt.Platform.TheoreticalSpeedup(pt.Scenario.MainClass(pt.Platform)),
		}
		logSum := 0.0
		gaps := make([]float64, 0, nw)
		for wi := 0; wi < nw; wi++ {
			o := rows[pi*nw+wi].Outcome
			sp := o.Speedup
			if sp <= 0 {
				sp = 1e-9
			}
			logSum += logOf(sp)
			s.MeanEnergyUJ += o.EnergyUJ
			gaps = append(gaps, o.GAGapPct)
		}
		s.GeoSpeedup = expOf(logSum / float64(nw))
		s.MeanEnergyUJ /= float64(nw)
		s.MedianGAGapPct = median(gaps)
		out[pi] = s
	}
	return out
}
