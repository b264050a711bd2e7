package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// latencyLimit is the daemon's latency limit: two of the slowest cold
// solves (compress on platform A, about 5 s each) back to back.
const latencyLimit = 10 * time.Second

// setupRepeats is how many times each workload repeats its set-up; the
// reported setup_s is the median. cold-het's set-up takes a few
// milliseconds, and the median of 3 moved by a fifth between batches of
// runs on one machine.
const setupRepeats = 9

// now reads the wall clock for benchmark timing.
func now() time.Time {
	return time.Now() //repolint:allow timenow (benchmark timing)
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 {
	return time.Since(t0).Seconds() //repolint:allow timenow (benchmark timing)
}

// quantile returns the p-quantile of xs (0 <= p <= 1) by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := k - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// targetGeomean is the geometric mean over targets of each target's
// geometric mean speedup. Speedups differ about fivefold between
// targets (platform A with accelerator scenario against platform B with
// slower cores), so weighting targets equally keeps the figure from
// moving with how many jobs of each target a run completed.
func targetGeomean[K comparable](byTarget map[K][]float64) float64 {
	var means []float64
	for _, xs := range byTarget {
		if len(xs) > 0 {
			means = append(means, geomean(xs))
		}
	}
	return geomean(means)
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianSetup runs setup setupRepeats times and returns the median
// duration in seconds with the last run's value.
func medianSetup[T any](setup func() (T, error)) (float64, T, error) {
	var (
		times []float64
		last  T
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, since(t0))
		last = v
	}
	return median(times), last, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc; pid "self" names the benchmark process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// checkDoc verifies one canonical result document (the `heteropar
// -json` / daemon response body): it must decode into serve.Result
// without unknown fields, re-encode to the same bytes, name the
// requested job, and report 0 < measured speedup <= theoretical
// speedup. It returns the decoded result.
func checkDoc(doc []byte, program, platform, scenario, approach string) (*serve.Result, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var res serve.Result
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("decode result document: %w", err)
	}
	if !bytes.Equal(res.Encode(), doc) {
		return nil, fmt.Errorf("result document does not round-trip through serve.Result")
	}
	if res.Program != program || res.Platform != platform || res.Scenario != scenario || res.Approach != approach {
		return nil, fmt.Errorf("document names %s/%s/%s/%s, want %s/%s/%s/%s",
			res.Program, res.Platform, res.Scenario, res.Approach, program, platform, scenario, approach)
	}
	// The simulator and the platform bound are computed independently;
	// allow for floating-point rounding at the bound only.
	if !(res.MeasuredSpeedup > 0) || res.MeasuredSpeedup > res.TheoreticalSpeedup*(1+1e-9) {
		return nil, fmt.Errorf("measured speedup %g outside (0, %g]", res.MeasuredSpeedup, res.TheoreticalSpeedup)
	}
	return &res, nil
}
