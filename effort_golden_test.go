package heteropar_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/serve"
)

const effortGoldenPath = "testdata/effort_golden.txt"

// effortLine renders the pinned facts of one run: the hash of its -json
// document, the exact bits of the estimated speedup, the ILP count, the
// summed branch-and-bound effort, and a hash over every solve record's
// deterministic fields (status, nodes, LP iterations, incumbents, gap
// bits, cuts, warm starts and hits, budget and node-cap stops).
func effortLine(fig, name, approach string, rep *heteropar.Report, doc []byte) string {
	st := rep.Result.Stats
	var nodes, iters, incs int
	h := sha256.New()
	for _, r := range st.Solves {
		nodes += r.Nodes
		iters += r.LPIters
		incs += r.Incumbents
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%s|%d|%d|%d|%x|%d|%d|%d|%t|%t\n",
			r.Region, r.Model, r.Class, r.MaxTasks, r.Vars, r.Cons, r.Status,
			r.Nodes, r.LPIters, r.Incumbents, math.Float64bits(r.Gap),
			r.Cuts, r.WarmStarts, r.WarmHits, r.TimedOut, r.NodeCapped)
	}
	docSum := sha256.Sum256(doc)
	return fmt.Sprintf("%s %s %s json=%s est=%x ilps=%d nodes=%d lpiters=%d incumbents=%d solves=%s",
		fig, name, approach, hex.EncodeToString(docSum[:8]), rep.EstimatedSpeedup,
		st.NumILPs, nodes, iters, incs, hex.EncodeToString(h.Sum(nil)[:8]))
}

// TestFigureEffortGolden pins the solver effort behind every figure run
// (10 UTDSP programs × the four figures × het/hom, default config, no
// store): the canonical -json document, the estimated speedup to the
// bit, and the per-solve effort counters. A solver change that claims
// to alter only the cost of solving — such as a different storage of
// the basis factors — must leave every line unchanged. Regenerate with
// REPRO_UPDATE_GOLDEN=1 when a change is meant to move plans or effort.
func TestFigureEffortGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("80 full pipeline runs")
	}
	var got []string
	for _, spec := range experiments.Figures() {
		scenario := "acc"
		if spec.Scenario == platform.ScenarioSlowerCores {
			scenario = "slow"
		}
		for _, b := range bench.All() {
			for _, ap := range []struct {
				token string
				ap    heteropar.Approach
			}{{"hom", heteropar.Homogeneous}, {"het", heteropar.Heterogeneous}} {
				rep, err := heteropar.Parallelize(b.Source, heteropar.Options{
					Platform: spec.Platform(), Scenario: spec.Scenario, Approach: ap.ap})
				if err != nil {
					t.Fatalf("%s %s %s: %v", spec.ID, b.Name, ap.token, err)
				}
				doc := serve.ResultOf(rep, b.Name, scenario, ap.token).Encode()
				got = append(got, effortLine(spec.ID, b.Name, ap.token, rep, doc))
			}
		}
	}

	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(effortGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(effortGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("effort golden updated: %d runs", len(got))
		return
	}

	f, err := os.Open(effortGoldenPath)
	if err != nil {
		t.Fatalf("no golden file (regenerate with REPRO_UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, sweep produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
