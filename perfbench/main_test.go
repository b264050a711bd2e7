package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsReportEveryMetric runs each workload at minimal size,
// untraced and traced, and checks that it reports every metric
// BENCHMARK.json names, each with its unit, and no wrong output. The
// workloads BENCHMARK.json lists report exactly those metrics.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	daemon := filepath.Join(dir, "heteropard")
	if out, err := exec.Command("go", "build", "-o", daemon, "repro/cmd/heteropard").CombinedOutput(); err != nil {
		t.Fatalf("build heteropard: %v\n%s", err, out)
	}
	// The DSE report digest is recorded under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
		listed[w.Name] = true
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			// daemon-mixed needs a few seconds for its phases to hold
			// any request; the others complete one operation.
			window := time.Second
			if name == "daemon-mixed" {
				window = 3 * time.Second
			}
			rep, err := measure(run, params{seed: 1, window: window, trace: trace, daemonBin: daemon, dsePoints: 1})
			if err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
				continue
			}
			if rep.attempted < 1 || rep.wrong > 0 {
				t.Errorf("%s trace=%t: attempted %d, wrong %d", name, trace, rep.attempted, rep.wrong)
			}
			if listed[name] && len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestChecksCatchCorruptOutput corrupts valid outputs and expects each
// check to trip.
func TestChecksCatchCorruptOutput(t *testing.T) {
	b := bench.ByName("fir_256")
	j := hetJob{bench: b, v: variants[1]}
	doc, err := runHetJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkHetDoc(j, doc); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	var res serve.Result
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	tooFast := res
	tooFast.MeasuredSpeedup = 2 * res.TheoreticalSpeedup
	zero := res
	zero.MeasuredSpeedup = 0
	renamed := res
	renamed.Program = "mult_10"
	for name, bad := range map[string][]byte{
		"speedup above the bound": tooFast.Encode(),
		"zero speedup":            zero.Encode(),
		"wrong program":           renamed.Encode(),
		"truncated":               doc[:len(doc)/2],
		"unknown field":           []byte(strings.Replace(string(doc), `"program"`, `"programme"`, 1)),
		"not canonical":           []byte(strings.Replace(string(doc), "\n  ", "\n ", 1)),
	} {
		if _, err := checkHetDoc(j, bad); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}

	bodies := sameBodies{}
	if !bodies.check(0, "k", doc) || !bodies.check(0, "k", doc) || !bodies.check(1, "k", tooFast.Encode()) {
		t.Error("equal bodies for one key rejected")
	}
	if bodies.check(0, "k", tooFast.Encode()) {
		t.Error("a different body for one key in one daemon lifetime passed")
	}

	in, err := prepareDSE(1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := runDSEEpisode(in, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkEpisode(in, ep, ep, rep)
	if rep.wrong != 0 {
		t.Fatalf("valid episode rejected %d times", rep.wrong)
	}
	other := *ep
	other.widenMD += " "
	checkEpisode(in, ep, &other, rep)
	if rep.wrong == 0 {
		t.Error("a report that differs between episodes passed")
	}
	rep = newReport()
	for i, row := range ep.widen.Rows {
		if in.coldIDs[row.Point.ID] {
			ep.widen.Rows[i].Outcome.Speedup *= 1.01
			break
		}
	}
	checkEpisode(in, ep, nil, rep)
	if rep.wrong == 0 {
		t.Error("a widen row that differs from the cold sweep passed")
	}
}
