package heteropar_test

import (
	"runtime"
	"sync"
	"testing"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/serve"
)

// budgetJob is one target whose default run stops ILP searches on the
// work budget, so the test exercises truncated solves, not only ones
// that finish on their own.
type budgetJob struct {
	bench    string
	platform func() *heteropar.Platform
}

var budgetJobs = []budgetJob{
	{"mult_10", heteropar.PlatformB},
	{"compress", heteropar.PlatformA},
}

// jobOutputs are the outputs of one default run: the -json document,
// the -stats solver table with its wall-time columns zeroed, and the
// count of solves stopped on the work budget.
type jobOutputs struct {
	doc, stats  string
	budgetStops int
}

func runOutputs(j budgetJob) (jobOutputs, error) {
	rep, err := heteropar.Parallelize(bench.ByName(j.bench).Source,
		heteropar.Options{Platform: j.platform(), Scenario: heteropar.Accelerator})
	if err != nil {
		return jobOutputs{}, err
	}
	st := rep.Result.Stats
	st.SolveTime = 0
	st.Solves = append([]core.SolveRecord(nil), st.Solves...)
	for i := range st.Solves {
		st.Solves[i].Time = 0
	}
	doc := serve.ResultOf(rep, j.bench, "acc", "het").Encode()
	return jobOutputs{doc: string(doc), stats: st.SolveTable(), budgetStops: st.Timeouts}, nil
}

// TestOutputsIndependentOfScheduling: every ILP stops on a count of
// solver work, never on the clock, so the -json document and the
// -stats table (bar its wall-time columns) are byte-identical under
// GOMAXPROCS=1 and 2 and with 8 copies of the run competing for the
// CPU.
func TestOutputsIndependentOfScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated full pipeline runs; skipped in -short mode")
	}
	for _, j := range budgetJobs {
		prev := runtime.GOMAXPROCS(1)
		one, err := runOutputs(j)
		runtime.GOMAXPROCS(2)
		two, err2 := runOutputs(j)
		runtime.GOMAXPROCS(prev)
		if err != nil || err2 != nil {
			t.Fatalf("%s on %s: %v / %v", j.bench, j.platform().Name, err, err2)
		}
		if one.budgetStops == 0 {
			t.Errorf("%s on %s: no solve stopped on the work budget; pick a job that exercises it", j.bench, j.platform().Name)
		}
		if one != two {
			t.Fatalf("%s on %s: GOMAXPROCS=1 and 2 differ:\n%s%s\nvs\n%s%s", j.bench, j.platform().Name, one.doc, one.stats, two.doc, two.stats)
		}

		const copies = 8
		outs := make([]jobOutputs, copies)
		errs := make([]error, copies)
		var wg sync.WaitGroup
		for k := 0; k < copies; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				outs[k], errs[k] = runOutputs(j)
			}(k)
		}
		wg.Wait()
		for k, out := range outs {
			if errs[k] != nil {
				t.Fatalf("%s on %s: concurrent copy %d: %v", j.bench, j.platform().Name, k, errs[k])
			}
			if out != one {
				t.Fatalf("%s on %s: concurrent copy %d differs from the GOMAXPROCS=1 run:\n%s%s\nvs\n%s%s",
					j.bench, j.platform().Name, k, out.doc, out.stats, one.doc, one.stats)
			}
		}
	}
}
