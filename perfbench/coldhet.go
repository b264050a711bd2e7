package main

import (
	"fmt"
	"math/rand"

	heteropar "repro"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/mpsoc"
	"repro/internal/serve"
	"repro/internal/taskspec"
)

// variant is one (platform, scenario) target of a job.
type variant struct {
	platform string // "A" or "B"
	scenario string // "acc" or "slow"
}

// variants are indexed so that the platform alternates with the index:
// even indices are platform A, odd ones B.
var variants = [4]variant{{"A", "acc"}, {"B", "acc"}, {"A", "slow"}, {"B", "slow"}}

func (v variant) options() heteropar.Options {
	opts := heteropar.Options{Platform: heteropar.PlatformA(), Scenario: heteropar.Accelerator}
	if v.platform == "B" {
		opts.Platform = heteropar.PlatformB()
	}
	if v.scenario == "slow" {
		opts.Scenario = heteropar.SlowerCores
	}
	return opts
}

// hetJob is one cold heterogeneous job: a bundled program on one
// variant.
type hetJob struct {
	bench *bench.Benchmark
	v     variant
}

// hetPlan generates cold-het's seeded job sequence from the 40 jobs
// (10 programs x 4 variants). The sequence is made of rounds; each
// round runs every program once. Program p runs variant
// (offset[p] + round) mod 4, so every 4 rounds run all 40 jobs once,
// and the offsets give exactly half the programs platform A in every
// round. Within a round the order is seeded but alternates A and B,
// so any prefix of a round is balanced too. Job cost depends mostly on
// the platform (A jobs take about twice as long), so the balance keeps
// the latency distribution of a run the same across seeds.
type hetPlan struct {
	rng     *rand.Rand
	benches []*bench.Benchmark
	offset  []int
	rounds  int      // rounds dealt so far
	queue   []hetJob // the rest of the current round
}

func newHetPlan(seed int64) (*hetPlan, error) {
	benches := bench.All()
	if len(benches)%2 != 0 {
		return nil, fmt.Errorf("cold-het needs an even number of bundled programs, have %d", len(benches))
	}
	// Validate every input before the window opens.
	for _, b := range benches {
		if _, err := minic.Compile(b.Source); err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	parity := make([]int, len(benches))
	for i := len(benches) / 2; i < len(benches); i++ {
		parity[i] = 1
	}
	rng.Shuffle(len(parity), func(i, j int) { parity[i], parity[j] = parity[j], parity[i] })
	offset := make([]int, len(benches))
	for i := range offset {
		offset[i] = parity[i] + 2*rng.Intn(2)
	}
	return &hetPlan{rng: rng, benches: benches, offset: offset}, nil
}

// next returns the next job of the sequence.
func (p *hetPlan) next() hetJob {
	if len(p.queue) == 0 {
		p.queue = p.round(p.rounds)
		p.rounds++
	}
	j := p.queue[0]
	p.queue = p.queue[1:]
	return j
}

// round returns round r's jobs in run order.
func (p *hetPlan) round(r int) []hetJob {
	var onA, onB []hetJob
	for i, b := range p.benches {
		j := hetJob{bench: b, v: variants[(p.offset[i]+r)%4]}
		if j.v.platform == "A" {
			onA = append(onA, j)
		} else {
			onB = append(onB, j)
		}
	}
	p.rng.Shuffle(len(onA), func(i, j int) { onA[i], onA[j] = onA[j], onA[i] })
	p.rng.Shuffle(len(onB), func(i, j int) { onB[i], onB[j] = onB[j], onB[i] })
	if p.rng.Intn(2) == 1 {
		onA, onB = onB, onA
	}
	out := make([]hetJob, 0, len(p.benches))
	for i := range onA {
		out = append(out, onA[i], onB[i])
	}
	return out
}

// runHetJob is one cold-het job as a user runs it: a store-less
// Parallelize call with default options plus the -json document.
func runHetJob(j hetJob) ([]byte, error) {
	rep, err := heteropar.Parallelize(j.bench.Source, j.v.options())
	if err != nil {
		return nil, err
	}
	return serve.ResultOf(rep, j.bench.Name, j.v.scenario, "het").Encode(), nil
}

// checkHetDoc applies cold-het's output checks to one job's document.
// The default audit ran inside Parallelize: a failed audit is an error,
// never a document.
func checkHetDoc(j hetJob, doc []byte) (*serve.Result, error) {
	return checkDoc(doc, j.bench.Name, j.v.options().Platform.Name, j.v.scenario, "het")
}

// runColdHet runs jobs one at a time until the window has passed.
func runColdHet(p params) (*report, error) {
	setup, plan, err := medianSetup(func() (*hetPlan, error) { return newHetPlan(p.seed) })
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if p.trace {
		traceColdHet(p, plan, rep)
		return rep, nil
	}
	var lat []float64
	speedups := map[variant][]float64{}
	start := now()
	for since(start) < p.window.Seconds() {
		j := plan.next()
		rep.attempted++
		t0 := now()
		doc, err := runHetJob(j)
		d := since(t0)
		if err != nil {
			rep.fail("%s %v: %v", j.bench.Name, j.v, err)
			continue
		}
		res, err := checkHetDoc(j, doc)
		if err != nil {
			rep.reject("%s %v: %v", j.bench.Name, j.v, err)
			continue
		}
		lat = append(lat, d)
		speedups[j.v] = append(speedups[j.v], res.MeasuredSpeedup)
	}
	elapsed := since(start)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, "s")
	rep.set("latency_p50_s", median(lat), "s")
	rep.set("latency_tail_s", quantile(lat, 0.75), "s")
	rep.set("throughput_per_s", float64(len(lat))/elapsed, "1/s")
	// A closed loop offers exactly what it completes: its sustained rate
	// is its throughput.
	rep.set("sustained_rate_per_s", float64(len(lat))/elapsed, "1/s")
	rep.set("plan_speedup_geomean", targetGeomean(speedups), "x")
	rep.set("ok_frac", rep.okFrac(), "1")
	rep.set("peak_rss_mb", rss, "MB")
	return rep, nil
}

// layerTimes accumulates the traced replay's per-step seconds.
type layerTimes struct {
	compile, profile, htgBuild, core, audit, taskspec, simulate, encode float64
}

func (t *layerTimes) add(o layerTimes) {
	t.compile += o.compile
	t.profile += o.profile
	t.htgBuild += o.htgBuild
	t.core += o.core
	t.audit += o.audit
	t.taskspec += o.taskspec
	t.simulate += o.simulate
	t.encode += o.encode
}

func (t layerTimes) sum() float64 {
	return t.compile + t.profile + t.htgBuild + t.core + t.audit + t.taskspec + t.simulate + t.encode
}

// replayHetJob runs one job as heteropar.Parallelize's own call
// sequence, timing each step into t. It returns the -json document,
// the HTG and the core result for the per-layer counters.
func replayHetJob(j hetJob, t *layerTimes) ([]byte, *htg.Graph, *core.Result, error) {
	opts := j.v.options()
	pf := opts.Platform
	if err := pf.Validate(); err != nil {
		return nil, nil, nil, err
	}
	t0 := now()
	prog, err := minic.Compile(j.bench.Source)
	t.compile += since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 = now()
	prof, err := interp.New(prog).Run()
	t.profile += since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 = now()
	g, err := htg.Build(prog, prof, htg.Config{})
	t.htgBuild += since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	mainClass := opts.Scenario.MainClass(pf)
	audit := 0.0
	cfg := core.Config{Audit: func(res *core.Result) error {
		a0 := now()
		err := analysis.AuditResult(res)
		audit += since(a0)
		return err
	}}
	t0 = now()
	res, err := core.Parallelize(g, pf, mainClass, core.Heterogeneous, cfg)
	estimated := 0.0
	if err == nil {
		estimated = res.EstimatedSpeedup(g)
	}
	t.core += since(t0) - audit
	t.audit += audit
	if err != nil {
		return nil, nil, nil, err
	}
	t0 = now()
	spec := taskspec.Build(res.Best, res.Platform)
	t.taskspec += since(t0)
	t0 = now()
	sim := mpsoc.New(pf, false)
	meas, err := sim.Run(res.Best, mainClass)
	if err != nil {
		return nil, nil, nil, err
	}
	seqNs := sim.SequentialBaseline(g, mainClass)
	seqEnergy := sim.SequentialEnergyUJ(g, mainClass)
	t.simulate += since(t0)
	t0 = now()
	// The same fields serve.ResultOf copies out of a facade Report (a
	// Report cannot be assembled outside the facade).
	doc := (&serve.Result{
		Program:            j.bench.Name,
		Platform:           res.Platform.Name,
		Scenario:           j.v.scenario,
		Approach:           "het",
		MainClass:          mainClass,
		MainClassName:      res.Platform.Classes[mainClass].Name,
		Tasks:              spec.NumTasks(),
		NumILPs:            res.Stats.NumILPs,
		NumVars:            res.Stats.NumVars,
		NumConstraints:     res.Stats.NumConstraints,
		SequentialNs:       seqNs,
		MakespanNs:         meas.MakespanNs,
		MeasuredSpeedup:    mpsoc.Speedup(seqNs, meas.MakespanNs),
		EstimatedSpeedup:   estimated,
		TheoreticalSpeedup: pf.TheoreticalSpeedup(mainClass),
		EnergyUJ:           meas.EnergyUJ,
		SequentialEnergyUJ: seqEnergy,
	}).Encode()
	t.encode += since(t0)
	return doc, g, res, nil
}

// traceColdHet is cold-het's traced run: every job runs once untraced
// through the facade and once as the timed replay, so the sum of the
// layer times can be set against the untraced job time of the same run.
func traceColdHet(p params, plan *hetPlan, rep *report) {
	var (
		t                          layerTimes
		st                         core.Stats
		facade, replay             float64
		jobs, dropped              int
		tasksS, chunksS, timedOutS float64
	)
	start := now()
	for since(start) < p.window.Seconds() {
		j := plan.next()
		rep.attempted++
		t0 := now()
		doc, err := runHetJob(j)
		df := since(t0)
		if err != nil {
			rep.fail("%s %v: %v", j.bench.Name, j.v, err)
			continue
		}
		if _, err := checkHetDoc(j, doc); err != nil {
			rep.reject("%s %v: %v", j.bench.Name, j.v, err)
			continue
		}
		var jt layerTimes
		t0 = now()
		doc, g, res, err := replayHetJob(j, &jt)
		dr := since(t0)
		if err != nil {
			rep.fail("%s %v replay: %v", j.bench.Name, j.v, err)
			continue
		}
		if _, err := checkHetDoc(j, doc); err != nil {
			rep.reject("%s %v replay: %v", j.bench.Name, j.v, err)
			continue
		}
		jobs++
		t.add(jt)
		facade += df
		replay += dr
		dropped += len(g.Dropped)
		s := res.Stats
		st.SolveTime += s.SolveTime
		st.Timeouts += s.Timeouts
		st.NodeCapHits += s.NodeCapHits
		st.BBNodes += s.BBNodes
		st.LPIters += s.LPIters
		st.NumILPs += s.NumILPs
		st.ProvedOptimal += s.ProvedOptimal
		st.WarmStarts += s.WarmStarts
		st.WarmHits += s.WarmHits
		for _, rec := range s.Solves {
			switch rec.Model {
			case "tasks":
				tasksS += rec.Time.Seconds()
			case "chunks":
				chunksS += rec.Time.Seconds()
			}
			if rec.TimedOut {
				timedOutS += rec.Time.Seconds()
			}
		}
	}
	n := float64(jobs)
	perJob := func(name string, total float64) { rep.set(name, frac(total, n), "s/job") }
	perJob("bench.job_s", facade)
	perJob("minic.compile_s", t.compile)
	perJob("interp.profile_s", t.profile)
	perJob("htg.build_s", t.htgBuild)
	perJob("core.parallelize_s", t.core)
	perJob("analysis.audit_s", t.audit)
	perJob("taskspec.build_s", t.taskspec)
	perJob("mpsoc.simulate_s", t.simulate)
	perJob("serve.encode_s", t.encode)
	perJob("bench.layers_sum_s", t.sum())
	rep.set("bench.trace_overhead_frac", frac(replay-facade, facade), "1")
	rep.set("htg.edges_dropped", frac(float64(dropped), n), "count/job")
	perJob("ilp.solve_s", st.SolveTime.Seconds())
	perJob("ilp.tasks_solve_s", tasksS)
	perJob("ilp.chunks_solve_s", chunksS)
	perJob("ilp.timed_out_s", timedOutS)
	rep.set("ilp.timeouts", frac(float64(st.Timeouts), n), "count/job")
	rep.set("ilp.node_cap_hits", frac(float64(st.NodeCapHits), n), "count/job")
	rep.set("ilp.bb_nodes", frac(float64(st.BBNodes), n), "count/job")
	rep.set("ilp.lp_iters", frac(float64(st.LPIters), n), "count/job")
	rep.set("ilp.us_per_lp_iter", frac(st.SolveTime.Seconds()*1e6, float64(st.LPIters)), "us")
	rep.set("ilp.proved_optimal_frac", frac(float64(st.ProvedOptimal), float64(st.NumILPs)), "1")
	rep.set("ilp.warm_hit_frac", frac(float64(st.WarmHits), float64(st.WarmStarts)), "1")
}
