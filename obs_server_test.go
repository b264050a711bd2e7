package heteropar_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/htg"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/solstore"
)

// smokeProgram is small enough that a 5-point sweep finishes in a few
// seconds yet has a DOALL loop, a reduction and cross-loop data flow —
// every instrumented layer (ilp, core region pool, solstore, dse) fires.
const smokeProgram = `
int a[64];
int b[64];
int total;

void main(void) {
    for (int i = 0; i < 64; i++) {
        a[i] = (i * 5) % 17;
    }
    total = 0;
    for (int j = 0; j < 64; j++) {
        total = total + a[j];
    }
    for (int k = 0; k < 64; k++) {
        b[k] = a[k] + total;
    }
}
`

func smokeWorkload(t *testing.T) *dse.Workload {
	t.Helper()
	prog, err := minic.Compile(smokeProgram)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prof, err := interp.New(prog).Run()
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	g, err := htg.Build(prog, prof, htg.Config{})
	if err != nil {
		t.Fatalf("htg: %v", err)
	}
	return dse.PrepareWorkload(&experiments.Prepared{
		Bench: &bench.Benchmark{Name: "smoke", Source: smokeProgram},
		Graph: g,
	})
}

func smokeSpace() dse.SpaceSpec {
	return dse.SpaceSpec{
		ClocksMHz:        []float64{100, 500},
		MaxClasses:       2,
		MaxCoresPerClass: 2,
		MinTotalCores:    2,
		MaxTotalCores:    3,
		Scenarios:        []platform.Scenario{platform.ScenarioAccelerator},
	}
}

// smokeConfig caps the per-point ILP work so the sweep stays in the
// seconds even on one core.
func smokeConfig() core.Config {
	return core.Config{
		MaxItemsPerILP:   6,
		MaxCandsPerClass: 2,
		MaxILPNodes:      20,
		ILPRelGap:        0.1,
	}
}

// smokeObserver wires the full telemetry stack: tracer, registry and
// an in-memory event ring mirrored from spans.
func smokeObserver(sink io.Writer) *obs.Observer {
	o := &obs.Observer{
		Tracer:  obs.NewTracer(),
		Metrics: obs.NewRegistry(),
		Events:  obs.NewEventLog(sink),
	}
	o.Tracer.SetEvents(o.Events)
	return o
}

func smokeEngine(o *obs.Observer, store *solstore.Store) *dse.Engine {
	return &dse.Engine{
		Workers: 2,
		Config:  smokeConfig(),
		GA:      dse.GAConfig{Population: 12, Generations: 12},
		Seed:    42,
		Obs:     o,
		Store:   store,
	}
}

// TestMetricsServerDuringSweep is the end-to-end telemetry smoke test:
// an obs.Server on an ephemeral port is scraped while a dse sweep runs,
// every scrape must be valid Prometheus text 0.0.4, and the final
// scrape must carry families from each instrumented layer. pprof must
// be mounted on the same listener.
func TestMetricsServerDuringSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep; skipped in -short mode")
	}
	o := smokeObserver(nil)
	store := solstore.New(solstore.Options{
		Capacity: 256,
		Metrics:  o.M(),
		Events:   o.E(),
	})
	srv, err := obs.NewServer("127.0.0.1:0", o.M(), o.E())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL() + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("content type %q lacks version=0.0.4", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read scrape: %v", err)
		}
		return string(body)
	}

	done := make(chan error, 1)
	go func() {
		eng := smokeEngine(o, store)
		_, err := eng.Run(context.Background(), smokeSpace().Enumerate(), []*dse.Workload{smokeWorkload(t)})
		done <- err
	}()

	// Scrape continuously while the sweep runs: the exposition must be
	// valid at every instant, not only at rest.
	scrapes := 0
	for sweeping := true; sweeping; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			sweeping = false
		case <-time.After(10 * time.Millisecond):
		}
		body := scrape()
		if body == "" {
			continue // nothing registered yet
		}
		scrapes++
		if err := obs.CheckPromText(strings.NewReader(body)); err != nil {
			t.Fatalf("scrape %d invalid:\n%v\n%s", scrapes, err, body)
		}
	}
	if scrapes == 0 {
		t.Fatal("never scraped a non-empty exposition")
	}

	final := scrape()
	for _, family := range []string{
		"# TYPE heteropar_ilp_solves counter",
		"# TYPE heteropar_core_region_solves counter",
		"# TYPE heteropar_core_region_solve_time_seconds histogram",
		"# TYPE heteropar_solstore_hits counter",
		"# TYPE heteropar_dse_points_completed counter",
		"# TYPE heteropar_dse_points_per_sec gauge",
	} {
		if !strings.Contains(final, family) {
			t.Errorf("final scrape missing %q", family)
		}
	}
	if !strings.Contains(final, `heteropar_core_region_solves{model="`) ||
		!strings.Contains(final, `source="computed"`) {
		t.Errorf("region solves counter lost its model/source labels:\n%s", final)
	}
	if o.E().Total() == 0 {
		t.Error("sweep emitted no events")
	}

	resp, err := http.Get(srv.URL() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestSweepIdenticalWithTelemetry pins the determinism boundary: the
// same sweep with full telemetry (metrics, events, tracer) and with
// none must render byte-identical reports.
func TestSweepIdenticalWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep; skipped in -short mode")
	}
	run := func(o *obs.Observer) (csv, md string) {
		t.Helper()
		var store *solstore.Store
		if o != nil {
			store = solstore.New(solstore.Options{Capacity: 256, Metrics: o.M(), Events: o.E()})
		} else {
			store = solstore.New(solstore.Options{Capacity: 256})
		}
		eng := smokeEngine(o, store)
		res, err := eng.Run(context.Background(), smokeSpace().Enumerate(), []*dse.Workload{smokeWorkload(t)})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		csv, err = res.Render("csv")
		if err != nil {
			t.Fatalf("render csv: %v", err)
		}
		md, err = res.Render("md")
		if err != nil {
			t.Fatalf("render markdown: %v", err)
		}
		return csv, md
	}

	o := smokeObserver(io.Discard)
	csvOn, mdOn := run(o)
	csvOff, mdOff := run(nil)

	if csvOn != csvOff {
		t.Errorf("CSV report differs with telemetry on:\n--- on ---\n%s--- off ---\n%s", csvOn, csvOff)
	}
	if mdOn != mdOff {
		t.Errorf("md report differs with telemetry on:\n--- on ---\n%s--- off ---\n%s", mdOn, mdOff)
	}
	if o.M().Counter("dse.points.completed").Value() == 0 {
		t.Error("telemetry run recorded no completed points")
	}
}
