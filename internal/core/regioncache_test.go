package core

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/solstore"
)

// canonicalize renders everything a run produces that the byte-identity
// guarantee covers: the chosen solution tree and the solve records with
// wall-clock durations normalized out (duration is the one quantity
// honestly allowed to differ between runs).
func canonicalize(res *Result) string {
	s := res.Best.Describe(res.Platform)
	stats := res.Stats
	stats.SolveTime = 0
	recs := append([]SolveRecord(nil), stats.Solves...)
	for i := range recs {
		recs[i].Time = 0
	}
	stats.Solves = recs
	return s + "\n" + fmt.Sprintf("%+v", stats)
}

// TestRegionWorkersByteIdentical is the acceptance criterion of the
// parallel scheduler: with RegionWorkers >= 4 (and a shared store in
// the mix), solutions and stats are byte-identical to the sequential
// run.
func TestRegionWorkersByteIdentical(t *testing.T) {
	pf := platform.ConfigA()
	srcs := []string{hotLoopSrc, independentWorkSrc}
	if testing.Short() {
		// Keep the race gate lean: one source still runs the 4-worker
		// scheduler against the sequential baseline.
		srcs = srcs[:1]
	}
	for _, src := range srcs {
		g := buildGraph(t, src)
		main := platform.ScenarioAccelerator.MainClass(pf)

		seqCfg := Config{}
		seqRes, err := Parallelize(g, pf, main, Heterogeneous, seqCfg)
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}

		parCfg := Config{}
		parCfg.RegionWorkers = 4
		parCfg.Store = solstore.New(solstore.Options{})
		parRes, err := Parallelize(g, pf, main, Heterogeneous, parCfg)
		if err != nil {
			t.Fatalf("parallel: %v", err)
		}

		if got, want := canonicalize(parRes), canonicalize(seqRes); got != want {
			t.Errorf("parallel run diverged from sequential run:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
		}
	}
}

// TestStoreWarmRunIdentical checks a warm run (everything served from
// the store) returns byte-identical results and actually hits.
func TestStoreWarmRunIdentical(t *testing.T) {
	pf := platform.ConfigA()
	g := buildGraph(t, hotLoopSrc)
	main := platform.ScenarioAccelerator.MainClass(pf)

	cfg := Config{}
	cfg.Store = solstore.New(solstore.Options{})
	cold, err := Parallelize(g, pf, main, Heterogeneous, cfg)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	afterCold := cfg.Store.Stats()
	if afterCold.Misses == 0 {
		t.Fatalf("cold run recorded no store misses; store not consulted")
	}

	warm, err := Parallelize(g, pf, main, Heterogeneous, cfg)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	afterWarm := cfg.Store.Stats()
	if afterWarm.Misses != afterCold.Misses {
		t.Errorf("warm run re-solved %d regions; want 0 new misses",
			afterWarm.Misses-afterCold.Misses)
	}
	if afterWarm.Hits <= afterCold.Hits {
		t.Errorf("warm run recorded no store hits")
	}
	if got, want := canonicalize(warm), canonicalize(cold); got != want {
		t.Errorf("warm run diverged from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
}

// TestStoreCrossScenarioReuse checks the key design point that makes
// the store pay off across a figure's scenario pair: parallelizeNode
// solves every region for every main class regardless of the requested
// scenario, so a second scenario on the same platform re-solves
// nothing.
func TestStoreCrossScenarioReuse(t *testing.T) {
	pf := platform.ConfigA()
	g := buildGraph(t, hotLoopSrc)
	cfg := Config{}
	cfg.Store = solstore.New(solstore.Options{})

	if _, err := Parallelize(g, pf, platform.ScenarioAccelerator.MainClass(pf), Heterogeneous, cfg); err != nil {
		t.Fatalf("scenario I: %v", err)
	}
	afterFirst := cfg.Store.Stats()

	if _, err := Parallelize(g, pf, platform.ScenarioSlowerCores.MainClass(pf), Heterogeneous, cfg); err != nil {
		t.Fatalf("scenario II: %v", err)
	}
	afterSecond := cfg.Store.Stats()
	if afterSecond.Misses != afterFirst.Misses {
		t.Errorf("second scenario solved %d new regions; want full reuse",
			afterSecond.Misses-afterFirst.Misses)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Errorf("second scenario recorded no store hits")
	}
}

// TestStoreStatsIndependentOfWarmth checks replayed records keep Stats
// (NumILPs and friends — quantities that appear in reports) equal to a
// fresh solve's.
func TestStoreStatsIndependentOfWarmth(t *testing.T) {
	if testing.Short() {
		t.Skip("three full solves with no concurrency; skipped in -short mode")
	}
	pf := platform.ConfigB()
	g := buildGraph(t, independentWorkSrc)
	main := platform.ScenarioAccelerator.MainClass(pf)

	noStore, err := Parallelize(g, pf, main, Heterogeneous, Config{})
	if err != nil {
		t.Fatalf("no store: %v", err)
	}
	cfg := Config{}
	cfg.Store = solstore.New(solstore.Options{})
	if _, err := Parallelize(g, pf, main, Heterogeneous, cfg); err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := Parallelize(g, pf, main, Heterogeneous, cfg)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Stats.NumILPs != noStore.Stats.NumILPs {
		t.Errorf("warm NumILPs = %d, want %d (stats must not depend on cache warmth)",
			warm.Stats.NumILPs, noStore.Stats.NumILPs)
	}
	if warm.Stats.BBNodes != noStore.Stats.BBNodes {
		t.Errorf("warm BBNodes = %d, want %d", warm.Stats.BBNodes, noStore.Stats.BBNodes)
	}
	if len(warm.Stats.Solves) != len(noStore.Stats.Solves) {
		t.Fatalf("warm solve count = %d, want %d", len(warm.Stats.Solves), len(noStore.Stats.Solves))
	}
	for i := range warm.Stats.Solves {
		a, b := warm.Stats.Solves[i], noStore.Stats.Solves[i]
		a.Time, b.Time = 0, 0
		if a != b {
			t.Errorf("solve %d differs:\nwarm: %+v\nfresh: %+v", i, a, b)
		}
	}
}
