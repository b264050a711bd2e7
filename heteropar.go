// Package heteropar is an automatic parallelizer for heterogeneous MPSoCs:
// a from-scratch reproduction of Cordes, Neugebauer, Engel and Marwedel,
// "Automatic Extraction of Task-Level Parallelism for Heterogeneous
// MPSoCs", ICPP 2013.
//
// The library takes a sequential program written in an ANSI-C subset and a
// heterogeneous platform description (processor classes with different
// clock speeds), profiles the program, builds an Augmented Hierarchical
// Task Graph, and extracts task-level parallelism with Integer Linear
// Programming models that simultaneously partition statements into tasks
// and pre-map tasks onto processor classes. The resulting plan can be
// inspected, rendered as an annotated source / parallel specification, and
// measured on the bundled event-driven MPSoC simulator.
//
// Quick start:
//
//	rep, err := heteropar.Parallelize(src, heteropar.Options{
//		Platform: heteropar.PlatformA(),
//		Scenario: heteropar.Accelerator,
//	})
//	if err != nil { ... }
//	fmt.Printf("speedup %.2fx\n", rep.MeasuredSpeedup)
//	fmt.Println(rep.AnnotatedSource())
package heteropar

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/mpsoc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
	"repro/internal/taskspec"
)

// Observer re-exports the observability bundle (tracer + metrics); see
// package repro/internal/obs. A nil observer disables all
// instrumentation at the cost of one pointer test per phase.
type Observer = obs.Observer

// NewObserver builds a fully enabled observer (tracing and metrics).
func NewObserver() *Observer {
	return &Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
}

// EventLog re-exports the structured JSONL telemetry event log (span
// open/close, solver incumbents, store evictions, worker stalls); see
// package repro/internal/obs. A nil log disables event emission.
type EventLog = obs.EventLog

// NewEventLog builds an event log retaining a bounded in-memory ring
// of recent events; w (which may be nil) additionally receives every
// event as one JSON line.
func NewEventLog(w io.Writer) *EventLog {
	return obs.NewEventLog(w)
}

// SolutionStore re-exports the sharded, size-bounded region-solve
// store (see package repro/internal/solstore): a content-addressed LRU
// cache of per-region ILP outcomes, safe for concurrent use and
// shareable across Parallelize calls so repeated or related programs
// skip identical region solves. Reuse is guaranteed output-neutral —
// keys cover every solver-visible input — so results stay
// byte-identical to a store-less run.
type SolutionStore = solstore.Store

// NewSolutionStore builds a region-solve store holding up to capacity
// entries (a default capacity applies when non-positive). Pass it via
// Options.Store, sharing one store across calls for cross-run reuse.
func NewSolutionStore(capacity int) *SolutionStore {
	return solstore.New(solstore.Options{Capacity: capacity})
}

// Platform re-exports the platform description type.
type Platform = platform.Platform

// ProcClass re-exports the processor class type.
type ProcClass = platform.ProcClass

// Scenario selects which processor class hosts the main (sequential) task.
type Scenario = platform.Scenario

// Scenario values: Accelerator puts the main task on the slowest class
// (scenario I of the paper), SlowerCores on the fastest (scenario II).
const (
	Accelerator = platform.ScenarioAccelerator
	SlowerCores = platform.ScenarioSlowerCores
)

// Approach selects the parallelization algorithm.
type Approach = core.Approach

// Approach values: Heterogeneous is the paper's contribution; Homogeneous
// is the uniform-cost baseline it is compared against.
const (
	Heterogeneous = core.Heterogeneous
	Homogeneous   = core.Homogeneous
)

// PlatformA returns evaluation configuration (A): ARM cores at
// 100/250/500/500 MHz.
func PlatformA() *Platform { return platform.ConfigA() }

// PlatformB returns evaluation configuration (B): ARM cores at
// 200/200/500/500 MHz (big.LITTLE-like).
func PlatformB() *Platform { return platform.ConfigB() }

// NewPlatform builds a custom platform from processor classes, using the
// library's default bus and task-creation overheads.
func NewPlatform(name string, classes ...ProcClass) *Platform {
	base := platform.ConfigA()
	return &Platform{
		Name:          name,
		Classes:       classes,
		BusLatencyNs:  base.BusLatencyNs,
		BusBytesPerNs: base.BusBytesPerNs,
		TaskCreateNs:  base.TaskCreateNs,
	}
}

// Options configures Parallelize.
type Options struct {
	// Platform is the target MPSoC (PlatformA() when nil).
	Platform *Platform
	// Scenario picks the main processor class (Accelerator by default).
	Scenario Scenario
	// Approach picks the algorithm (Heterogeneous by default).
	Approach Approach
	// DisableChunking turns DOALL iteration splitting off (ablation).
	DisableChunking bool
	// EnablePipelining turns on the software-pipelining extension for
	// recurrence loops (beyond the published tool; see DESIGN.md).
	EnablePipelining bool
	// SkipSimulation omits the MPSoC measurement (faster; the report's
	// Measured* fields stay zero).
	SkipSimulation bool
	// RegionWorkers bounds how many independent regions of one HTG
	// level are solved concurrently (sequential when <= 1). Any value
	// produces byte-identical output: results merge in deterministic
	// region order.
	RegionWorkers int
	// Store, when non-nil, caches region ILP solves by content address
	// so repeated or related Parallelize calls (e.g. the same program
	// on both scenarios of a platform) skip identical solves. See
	// NewSolutionStore.
	Store *SolutionStore
	// Observer, when non-nil, records phase spans, per-solve solver
	// telemetry and simulator occupancy for the -trace/-stats tooling.
	Observer *Observer
	// Metrics, when non-nil, receives solver/cache/pool metric families
	// without requiring a full Observer; ignored when Observer already
	// carries a registry.
	Metrics *obs.Registry
	// EventLog, when non-nil, receives structured telemetry events
	// (span open/close, solver incumbents, store evictions, worker
	// stalls); ignored when Observer already carries an event log.
	EventLog *EventLog
	// SkipAudit disables the static race-and-budget audit that otherwise
	// checks every produced solution against the dependence sets, the
	// platform core budgets and the cost model (see internal/analysis).
	SkipAudit bool
}

// Report is the result of parallelizing one program.
type Report struct {
	// Program is the checked AST.
	Program *minic.Program
	// Graph is the Augmented Hierarchical Task Graph.
	Graph *htg.Graph
	// Result holds the chosen solution, the per-node parallel sets and
	// the ILP statistics.
	Result *core.Result
	// Spec is the flattened parallel + pre-mapping specification.
	Spec *taskspec.Spec

	// EstimatedSpeedup is the parallelizer's cost-model prediction.
	EstimatedSpeedup float64
	// MeasuredSpeedup and MeasuredMakespanNs come from the MPSoC
	// simulator (zero when SkipSimulation was set).
	MeasuredSpeedup    float64
	MeasuredMakespanNs float64
	// SequentialNs is the baseline: sequential execution on the main core.
	SequentialNs float64
	// MeasuredEnergyUJ is the simulated energy of the parallel execution;
	// SequentialEnergyUJ the baseline's (main core active, others idling).
	MeasuredEnergyUJ   float64
	SequentialEnergyUJ float64
	// MainClass is the resolved main processor class index.
	MainClass int
	// Measured is the raw simulator result (trace, utilization, energy);
	// nil when SkipSimulation was set.
	Measured *mpsoc.Result

	opts Options
}

// Parallelize runs the complete tool flow on source. When an Observer
// is configured, each pipeline phase (compile, profile, HTG build,
// parallelize with its per-region ILP solves, taskspec, simulate) is
// wrapped in a tracing span, solver telemetry flows into the metrics
// registry, and the simulated schedule is exported as per-core
// occupancy tracks.
func Parallelize(source string, opts Options) (*Report, error) {
	if opts.Platform == nil {
		opts.Platform = PlatformA()
	}
	if err := opts.Platform.Validate(); err != nil {
		return nil, err
	}
	tr := opts.Observer.T()
	// Resolve the effective telemetry sinks: an Observer's own registry
	// and event log win; the standalone Options fields cover callers
	// that only want metrics or events without tracing.
	metrics := opts.Observer.M()
	if metrics == nil {
		metrics = opts.Metrics
	}
	events := opts.Observer.E()
	if events == nil {
		events = opts.EventLog
	}
	if events != nil {
		tr.SetEvents(events)
	}
	flow := tr.Start("parallelize-flow",
		obs.String("platform", opts.Platform.Name),
		obs.String("approach", opts.Approach.String()))
	defer flow.End()

	span := tr.Start("compile", obs.Int("source_bytes", len(source)))
	prog, err := minic.Compile(source)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("heteropar: %w", err)
	}
	span = tr.Start("profile")
	in := interp.New(prog)
	prof, err := in.Run()
	span.End()
	if err != nil {
		return nil, fmt.Errorf("heteropar: profiling failed: %w", err)
	}
	span = tr.Start("htg-build")
	g, err := htg.Build(prog, prof, htg.Config{})
	if err != nil {
		span.End()
		return nil, fmt.Errorf("heteropar: %w", err)
	}
	span.End()
	mainClass := opts.Scenario.MainClass(opts.Platform)
	cfg := core.Config{
		DisableChunking:  opts.DisableChunking,
		EnablePipelining: opts.EnablePipelining,
		RegionWorkers:    opts.RegionWorkers,
		Store:            opts.Store,
		Tracer:           tr,
		Metrics:          metrics,
		Events:           events,
	}
	if !opts.SkipAudit {
		cfg.Audit = analysis.AuditResult
	}
	span = tr.Start("parallelize", obs.Int("main_class", mainClass))
	res, err := core.Parallelize(g, opts.Platform, mainClass, opts.Approach, cfg)
	if err != nil {
		span.End()
		return nil, fmt.Errorf("heteropar: %w", err)
	}
	span.SetAttr(
		obs.Int("ilps", res.Stats.NumILPs),
		obs.Int("bb_nodes", res.Stats.BBNodes),
		obs.Dur("solve_time", res.Stats.SolveTime))
	span.End()
	span = tr.Start("taskspec")
	spec := taskspec.Build(res.Best, res.Platform)
	span.End()
	rep := &Report{
		Program:          prog,
		Graph:            g,
		Result:           res,
		Spec:             spec,
		EstimatedSpeedup: res.EstimatedSpeedup(g),
		MainClass:        mainClass,
		opts:             opts,
	}
	if !opts.SkipSimulation {
		span = tr.Start("simulate")
		sim := mpsoc.New(opts.Platform, opts.Approach == Homogeneous)
		meas, err := sim.Run(res.Best, mainClass)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("heteropar: simulation failed: %w", err)
		}
		rep.SequentialNs = sim.SequentialBaseline(g, mainClass)
		rep.MeasuredMakespanNs = meas.MakespanNs
		rep.MeasuredSpeedup = mpsoc.Speedup(rep.SequentialNs, meas.MakespanNs)
		rep.MeasuredEnergyUJ = meas.EnergyUJ
		rep.SequentialEnergyUJ = sim.SequentialEnergyUJ(g, mainClass)
		rep.Measured = meas
		span.SetAttr(
			obs.Float("makespan_ns", meas.MakespanNs),
			obs.Float("speedup", rep.MeasuredSpeedup))
		span.End()
		meas.ExportOccupancy(tr, opts.Platform)
	}
	return rep, nil
}

// AnnotatedSource renders the program with OpenMP-style task annotations.
func (r *Report) AnnotatedSource() string {
	return r.Spec.AnnotateSource(r.Program)
}

// ParallelSpec renders the parallel + pre-mapping specification.
func (r *Report) ParallelSpec() string { return r.Spec.Render() }

// PlanSummary renders the hierarchical task plan.
func (r *Report) PlanSummary() string {
	return r.Result.Best.Describe(r.Result.Platform)
}

// NumTasks returns the number of tasks in the flattened specification.
func (r *Report) NumTasks() int { return r.Spec.NumTasks() }

// Platform returns the target platform. For the homogeneous approach
// it differs from Result.Platform, the one-class uniform platform the
// baseline plans against; MainClass always indexes this one.
func (r *Report) Platform() *Platform { return r.opts.Platform }

// TheoreticalLimit returns the platform's maximum speedup for the chosen
// scenario (the dashed line of the paper's figures).
func (r *Report) TheoreticalLimit() float64 {
	return r.Platform().TheoreticalSpeedup(r.MainClass)
}

// SolverStatsTable renders the per-region ILP solve records (region,
// model, problem size, branch-and-bound effort, gap, status) as an
// aligned text table. Empty when no ILPs were solved.
func (r *Report) SolverStatsTable() string {
	return r.Result.Stats.SolveTable()
}

// Gantt renders the simulated execution as an ASCII timeline (empty when
// the simulation was skipped). Non-positive widths fall back to 96
// columns instead of producing a degenerate chart.
func (r *Report) Gantt(width int) string {
	if r.Measured == nil {
		return ""
	}
	if width <= 0 {
		width = 96
	}
	return mpsoc.RenderGantt(r.opts.Platform, r.Measured, width)
}

// GenerateGo emits a runnable parallel Go implementation of the chosen
// plan (goroutines + channel synchronization); the equivalent of the
// paper's source-to-source implementation step.
func (r *Report) GenerateGo() (string, error) {
	return codegen.Parallel(r.Program, r.Result.Best)
}

// GenerateSequentialGo emits the sequential Go reference translation.
func (r *Report) GenerateSequentialGo() (string, error) {
	return codegen.Sequential(r.Program)
}
