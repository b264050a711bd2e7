package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
)

// supervisor runs the shipped heteropard daemon as a child process and
// restarts it whenever it exits on its own, counting each such exit as
// a crash. Requests in flight when the child dies fail, as do requests
// sent after it died but before the supervisor saw it exit; the load
// generator counts them. Once the supervisor has seen the exit, new
// requests wait in the generator until the restarted daemon is healthy,
// as clients behind a health-checking balancer would, and their latency
// still counts from their due time. A sender whose request failed in
// transport waits for the supervisor to see the exit first, as a client
// backing off after a failed connection would.
type supervisor struct {
	bin     string
	workers int

	mu       sync.Mutex
	cmd      *exec.Cmd
	addr     string // host:port, fixed after the first start
	gen      int    // daemon lifetime, incremented by every restart
	crashes  int
	stopping bool
	peakMB   float64
	up       chan struct{} // closed while the daemon is believed healthy
	err      error         // why a restart failed, if one did
	done     chan struct{} // closed when the supervising goroutine returns
}

// listenWriter captures the daemon's stdout and hands over the address
// from its "listening on http://ADDR" line.
type listenWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (w *listenWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.addr == nil {
		return len(p), nil
	}
	w.buf.Write(p)
	line, err := w.buf.ReadString('\n')
	if err != nil {
		w.buf.Reset()
		w.buf.WriteString(line)
		return len(p), nil
	}
	const marker = "listening on http://"
	if i := strings.Index(line, marker); i >= 0 {
		f := strings.Fields(line[i+len(marker):])
		if len(f) > 0 {
			w.addr <- f[0]
		}
	}
	w.addr = nil
	return len(p), nil
}

// launch starts one daemon lifetime and waits until it answers
// /healthz.
func launch(bin, addr string, workers int) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers), "-drain-timeout", "5s")
	addrCh := make(chan string, 1)
	cmd.Stdout = &listenWriter{addr: addrCh}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	fail := func(err error) (*exec.Cmd, string, error) {
		_ = cmd.Process.Kill() // the error is already being reported
		_ = cmd.Wait()
		return nil, "", err
	}
	var bound string
	select {
	case bound = <-addrCh:
	case <-time.After(10 * time.Second):
		return fail(fmt.Errorf("heteropard printed no listening address within 10s"))
	}
	client := &http.Client{Timeout: time.Second}
	deadline := now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://" + bound + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, bound, nil
			}
		}
		if now().After(deadline) {
			return fail(fmt.Errorf("heteropard at %s not healthy within 10s", bound))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startSupervisor launches the daemon on an ephemeral port and keeps it
// running on that port until stop.
func startSupervisor(bin string, workers int) (*supervisor, error) {
	cmd, addr, err := launch(bin, "127.0.0.1:0", workers)
	if err != nil {
		return nil, err
	}
	s := &supervisor{bin: bin, workers: workers, cmd: cmd, addr: addr, up: make(chan struct{}), done: make(chan struct{})}
	close(s.up)
	go s.supervise(cmd)
	return s, nil
}

func (s *supervisor) supervise(cmd *exec.Cmd) {
	defer close(s.done)
	for {
		_ = cmd.Wait() // any exit not asked for by stop is a crash
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			return
		}
		s.crashes++
		s.gen++
		s.up = make(chan struct{})
		s.mu.Unlock()
		next, _, err := launch(s.bin, s.addr, s.workers)
		s.mu.Lock()
		if err != nil || s.stopping {
			if err != nil {
				s.err = fmt.Errorf("restart after crash: %w", err)
			}
			s.mu.Unlock()
			if next != nil {
				_ = next.Process.Kill() // stopping: this lifetime was never used
				_ = next.Wait()
			}
			return
		}
		s.cmd = next
		close(s.up)
		s.mu.Unlock()
		cmd = next
	}
}

// ready returns a channel that is closed while the daemon is believed
// healthy.
func (s *supervisor) ready() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// awaitRestart waits, for at most a second, until daemon lifetime gen
// has ended; the sender then waits on ready before its next request.
func (s *supervisor) awaitRestart(ctx context.Context, gen int) {
	deadline := now().Add(time.Second)
	for s.lifetime() == gen && now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
}

// lifetime returns the current daemon lifetime.
func (s *supervisor) lifetime() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// sampleRSS folds the live child's peak RSS into the running maximum.
func (s *supervisor) sampleRSS() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	if mb, err := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)); err == nil && mb > s.peakMB {
		s.peakMB = mb
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s) and
// waits for the supervising goroutine to return.
func (s *supervisor) stop() {
	s.sampleRSS()
	s.mu.Lock()
	s.stopping = true
	cmd := s.cmd
	s.mu.Unlock()
	_ = cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-s.done
	}
}

// Request kinds, as the generator classifies them when sending.
const (
	kindRepeat = "repeat" // a job key answered 200 earlier in this daemon lifetime
	kindEdit   = "edit"   // inline source with a fresh trailing comment
	kindFirst  = "first"  // any other request
)

// daemonRequest is one scheduled request of daemon-mixed.
type daemonRequest struct {
	due      time.Duration // offset from the start of the window
	phase    int
	bench    *bench.Benchmark
	v        variant
	approach string // "het" or "hom"
	edit     bool
	rev      int
}

func (r daemonRequest) key() string {
	return r.bench.Name + "/" + r.v.platform + "/" + r.v.scenario + "/" + r.approach
}

// platformName is the platform the result document names: the
// homogeneous baseline solves on a one-class uniform copy.
func (r daemonRequest) platformName() string {
	name := r.v.options().Platform.Name
	if r.approach == "hom" {
		name += "-uniform"
	}
	return name
}

func (r daemonRequest) body() []byte {
	req := map[string]string{"platform": r.v.platform, "scenario": r.v.scenario, "approach": r.approach}
	if r.edit {
		req["source"] = fmt.Sprintf("%s\n/* rev %d */\n", r.bench.Source, r.rev)
		req["program"] = r.bench.Name
	} else {
		req["bench"] = r.bench.Name
	}
	b, _ := json.Marshal(req) // a map of strings always marshals
	return b
}

// daemonRates are the offered rates (requests per second) of
// daemon-mixed's phases, in order; each phase lasts an equal share of
// the window. Two workers sustain about 1 request/s of cold solves;
// above about half of that, queueing in the generator dominates latency
// and makes it swing by half between runs of one seed, so the phases
// stay at or below that capacity.
var daemonRates = []float64{0.25, 0.5, 1}

// daemonDealSeed fixes the order in which daemon-mixed's requests are
// dealt (see daemonSchedule).
const daemonDealSeed = 1

// zipfCounts splits n draws over len(weights) ranks in proportion to
// 1/k^s (rank k from 1), rounding by largest remainder.
func zipfCounts(ranks int, s float64, n int) []int {
	weights := make([]float64, ranks)
	total := 0.0
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		total += weights[k]
	}
	counts := make([]int, ranks)
	order := make([]int, ranks)
	used := 0
	for k, w := range weights {
		counts[k] = int(w / total * float64(n))
		used += counts[k]
		order[k] = k
	}
	rem := func(k int) float64 { return weights[k]/total*float64(n) - float64(counts[k]) }
	sort.SliceStable(order, func(i, j int) bool { return rem(order[i]) > rem(order[j]) })
	for i := 0; used < n; i++ {
		counts[order[i]]++
		used++
	}
	return counts
}

// spreadCrashes shuffles items and then spaces those matching crash
// evenly (with a seeded phase) through the sequence. Every
// homogeneous slower-cores job panics the daemon (a known defect, kept
// at its stated weight), and a crash discards the daemon's warm store,
// so evenly spaced crashes give every run daemon lifetimes of equal
// length instead of a seed-dependent mix of long and short ones.
func spreadCrashes[T any](rng *rand.Rand, items []T, crash func(T) bool) []T {
	var crashes, rest []T
	for _, it := range items {
		if crash(it) {
			crashes = append(crashes, it)
		} else {
			rest = append(rest, it)
		}
	}
	rng.Shuffle(len(crashes), func(i, j int) { crashes[i], crashes[j] = crashes[j], crashes[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	if len(crashes) == 0 {
		return rest
	}
	gap := float64(len(items)) / float64(len(crashes))
	phase := rng.Float64()
	out := make([]T, 0, len(items))
	for k, c := range crashes {
		pos := int((float64(k) + phase) * gap)
		for len(out) < pos && len(rest) > 0 {
			out = append(out, rest[0])
			rest = rest[1:]
		}
		out = append(out, c)
	}
	return append(out, rest...)
}

// daemonSchedule generates the open-loop schedule. Each phase holds
// rate x phase-length arrivals at times drawn from the run seed: a
// Poisson process conditioned on its count. The requests are dealt once,
// independent of the seed, as exact shares of the run: programs by Zipf
// (s = 1.1) over the bundled programs' rank; platform, scenario and
// approach (het : hom = 3 : 1) uniform; 1 request in 4 an edit. With
// about 20 requests a run, drawing the requests from the seed as well
// moved the median latency by up to 2x between seeds, because the
// outcome cache only answers a repeat that lands in the same daemon
// lifetime as its first sighting.
func daemonSchedule(seed int64, window time.Duration) []daemonRequest {
	rng := rand.New(rand.NewSource(seed))
	phaseLen := window / time.Duration(len(daemonRates))
	var dues []time.Duration
	phases := []int{}
	for ph, rate := range daemonRates {
		n := int(math.Round(rate * phaseLen.Seconds()))
		start := len(dues)
		for i := 0; i < n; i++ {
			dues = append(dues, time.Duration(ph)*phaseLen+time.Duration(rng.Float64()*float64(phaseLen)))
			phases = append(phases, ph)
		}
		part := dues[start:]
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
	}
	n := len(dues)

	deal := rand.New(rand.NewSource(daemonDealSeed))
	var programs []*bench.Benchmark
	for k, c := range zipfCounts(len(bench.All()), 1.1, n) {
		for ; c > 0; c-- {
			programs = append(programs, bench.All()[k])
		}
	}
	type mix struct {
		v        variant
		approach string
	}
	// 16 = 4 variants x (3 het + 1 hom), repeated and cut to n.
	var mixes []mix
	for len(mixes) < n {
		for _, v := range variants {
			mixes = append(mixes, mix{v, "het"}, mix{v, "het"}, mix{v, "het"}, mix{v, "hom"})
		}
	}
	mixes = mixes[:n]
	edits := make([]bool, n)
	for i := 0; i < (n+2)/4; i++ {
		edits[i] = true
	}
	deal.Shuffle(n, func(i, j int) { programs[i], programs[j] = programs[j], programs[i] })
	mixes = spreadCrashes(deal, mixes, func(m mix) bool { return m.approach == "hom" && m.v.scenario == "slow" })
	deal.Shuffle(n, func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })

	out := make([]daemonRequest, n)
	for i := range out {
		out[i] = daemonRequest{
			due: dues[i], phase: phases[i], bench: programs[i],
			v: mixes[i].v, approach: mixes[i].approach, edit: edits[i], rev: i,
		}
	}
	return out
}

// outcome is what the generator observed for one request.
type outcome struct {
	sent     bool
	kind     string
	lag      float64 // send time minus due time, seconds
	latency  float64 // completion minus due time, seconds
	code     int     // HTTP status, 0 for a transport failure
	err      string
	body     []byte
	lifetime int
}

// loadRun is one daemon-mixed window's raw observations.
type loadRun struct {
	reqs     []daemonRequest
	outs     []outcome
	window   time.Duration
	setupS   float64
	crashes  int
	peakMB   float64
	scrapes  map[int]promSample // last /metrics scrape per lifetime
	superErr error
}

// promSample holds the /metrics values daemon-mixed reads.
type promSample map[string]float64

// scrapeMetrics fetches the daemon's /metrics and sums the series
// daemon-mixed reads, labels folded.
func scrapeMetrics(client *http.Client, addr string) (promSample, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if name[:i] == "heteropar_serve_requests" && !strings.Contains(name, `endpoint="parallelize"`) {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// driveDaemon runs the schedule against a supervised daemon. nproc
// sender goroutines share one HTTP connection pool of nproc; a request
// that falls due while every sender is busy waits in the generator, and
// its latency still counts from its due time. Requests not answered
// within the latency limit after the window closes fail.
func driveDaemon(bin string, seed int64, window time.Duration, scrape bool) (*loadRun, error) {
	nproc := runtime.NumCPU()
	var (
		times []float64
		sup   *supervisor
		reqs  []daemonRequest
	)
	// Set-up is generating the schedule and starting a healthy daemon;
	// it is repeated and the earlier daemons are stopped again.
	for i := 0; i < setupRepeats; i++ {
		if sup != nil {
			sup.stop()
		}
		t0 := now()
		reqs = daemonSchedule(seed, window)
		s, err := startSupervisor(bin, nproc)
		if err != nil {
			return nil, err
		}
		times = append(times, since(t0))
		sup = s
	}
	run := &loadRun{
		reqs:    reqs,
		outs:    make([]outcome, len(reqs)),
		window:  window,
		setupS:  median(times),
		scrapes: map[int]promSample{},
	}
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	probe := &http.Client{Timeout: 2 * time.Second}

	start := now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(window+latencyLimit))
	defer cancel()

	// Monitor: peak RSS four times a second, /metrics once a second.
	var scrapeMu sync.Mutex
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	scrapeNow := func() {
		gen := sup.lifetime()
		if m, err := scrapeMetrics(probe, sup.addr); err == nil && sup.lifetime() == gen {
			scrapeMu.Lock()
			run.scrapes[gen] = m
			scrapeMu.Unlock()
		}
	}
	go func() {
		defer close(monDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stopMon:
				return
			case <-tick.C:
			}
			sup.sampleRSS()
			if scrape && n%4 == 0 {
				scrapeNow()
			}
		}
	}()

	var (
		mu       sync.Mutex
		answered = map[string]int{} // job key -> 1 + lifetime that answered it 200
		next     int
		wg       sync.WaitGroup
	)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if d := r.due - time.Duration(since(start)*float64(time.Second)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
				select {
				case <-sup.ready():
				case <-ctx.Done():
				}
				if ctx.Err() != nil {
					return // still unsent at the deadline: counted as failed
				}
				o := &run.outs[i]
				o.sent = true
				o.lag = since(start) - r.due.Seconds()
				o.lifetime = sup.lifetime()
				mu.Lock()
				switch {
				case r.edit:
					o.kind = kindEdit
				case answered[r.key()] == o.lifetime+1:
					o.kind = kindRepeat
				default:
					o.kind = kindFirst
				}
				mu.Unlock()
				o.code, o.body, o.err = post(ctx, client, "http://"+sup.addr+"/v1/parallelize", r.body())
				o.latency = since(start) - r.due.Seconds()
				if o.code == 0 {
					// Like a client that backs off after a failed
					// connection, wait for the supervisor to see the
					// crash before sending again.
					sup.awaitRestart(ctx, o.lifetime)
				}
				if o.code == http.StatusOK {
					mu.Lock()
					answered[r.key()] = o.lifetime + 1
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(stopMon)
	<-monDone
	if scrape {
		scrapeNow()
	}
	sup.stop()
	run.crashes, run.peakMB, run.superErr = sup.crashes, sup.peakMB, sup.err
	return run, nil
}

// post sends one request and reads the whole response.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err.Error()
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err.Error()
	}
	return resp.StatusCode, data, ""
}

// sameBodies checks that equal job keys get byte-identical bodies within
// one daemon lifetime.
type sameBodies map[string][32]byte

// check records body for (lifetime, key) and reports whether it equals
// every earlier body recorded for them.
func (b sameBodies) check(lifetime int, key string, body []byte) bool {
	k := strconv.Itoa(lifetime) + "|" + key
	sum := sha256.Sum256(body)
	if prev, ok := b[k]; ok {
		return prev == sum
	}
	b[k] = sum
	return true
}

// runDaemonMixed drives daemon-mixed and checks every response.
func runDaemonMixed(p params) (*report, error) {
	if _, err := os.Stat(p.daemonBin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w (build it with perfbench/run.sh)", err)
	}
	run, err := driveDaemon(p.daemonBin, p.seed, p.window, p.trace)
	if err != nil {
		return nil, err
	}
	if run.superErr != nil {
		return nil, run.superErr
	}
	rep := newReport()
	var (
		lat                  []float64
		speedups             = map[variant][]float64{}
		good                 int
		phaseLat             = make([][]float64, len(daemonRates))
		phaseLag             = make([]float64, len(daemonRates))
		kindLat              = map[string][]float64{}
		kindSent             = map[string]int{}
		sent, rejected, errs int
		lagMax               float64
		bodies               = sameBodies{}
		deadline             = (run.window + latencyLimit).Seconds()
	)
	for i, r := range run.reqs {
		o := run.outs[i]
		rep.attempted++
		if !o.sent {
			errs++
			phaseLag[r.phase] = math.Max(phaseLag[r.phase], deadline-r.due.Seconds())
			rep.fail("request %d (%s) still waiting in the generator at the deadline", i, r.key())
			continue
		}
		sent++
		kindSent[o.kind]++
		lagMax = math.Max(lagMax, o.lag)
		phaseLag[r.phase] = math.Max(phaseLag[r.phase], o.lag)
		switch {
		case o.code == 0:
			errs++
			rep.fail("request %d (%s): %s", i, r.key(), o.err)
			continue
		case o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable:
			rejected++
			rep.fail("request %d (%s): HTTP %d", i, r.key(), o.code)
			continue
		case o.code != http.StatusOK:
			errs++
			rep.fail("request %d (%s): HTTP %d: %s", i, r.key(), o.code, strings.TrimSpace(string(o.body)))
			continue
		}
		res, err := checkDoc(o.body, r.bench.Name, r.platformName(), r.v.scenario, r.approach)
		if err != nil {
			rep.reject("request %d (%s): %v", i, r.key(), err)
			continue
		}
		// Edits carry a fresh job key each.
		if !r.edit && !bodies.check(o.lifetime, r.key(), o.body) {
			rep.reject("request %d (%s): body differs from an earlier answer to the same job key", i, r.key())
			continue
		}
		lat = append(lat, o.latency)
		phaseLat[r.phase] = append(phaseLat[r.phase], o.latency)
		kindLat[o.kind] = append(kindLat[o.kind], o.latency)
		if o.latency <= latencyLimit.Seconds() {
			good++
		}
		if r.approach == "het" {
			speedups[r.v] = append(speedups[r.v], res.MeasuredSpeedup)
		}
	}
	// A request that failed counts as missing the latency limit, so the
	// end-to-end percentiles are over every attempted request.
	for i := 0; i < rep.failed; i++ {
		lat = append(lat, latencyLimit.Seconds())
	}
	if p.trace {
		for _, k := range []string{kindRepeat, kindEdit, kindFirst} {
			rep.set("serve.latency_p50_s."+k, median(kindLat[k]), "s")
			rep.set("serve.latency_tail_s."+k, quantile(kindLat[k], 0.75), "s")
			rep.set("loadgen.share."+k, frac(float64(kindSent[k]), float64(sent)), "1")
		}
		rep.set("loadgen.lag_max_s", lagMax, "s")
		total := promSample{}
		for _, s := range run.scrapes {
			for k, v := range s {
				total[k] += v
			}
		}
		rep.set("serve.cache_hit_frac", frac(total["heteropar_serve_cache_hits"], total["heteropar_serve_requests"]), "1")
		rep.set("serve.coalesce_hits", total["heteropar_serve_coalesce_hits"], "count")
		rep.set("serve.solve_s_mean", frac(total["heteropar_serve_solve_latency_seconds_sum"], total["heteropar_serve_solve_latency_seconds_count"]), "s")
		rep.set("solstore.hit_frac", frac(total["heteropar_solstore_hits"], total["heteropar_solstore_hits"]+total["heteropar_solstore_misses"]), "1")
		rep.set("solstore.evictions", total["heteropar_solstore_evictions"], "count")
		rep.set("serve.rejected", float64(rejected), "count")
		rep.set("serve.errors", float64(errs), "count")
		rep.set("serve.crashes", float64(run.crashes), "count")
		return rep, nil
	}
	rep.set("setup_s", run.setupS, "s")
	rep.set("latency_p50_s", median(lat), "s")
	rep.set("latency_tail_s", quantile(lat, 0.75), "s")
	rep.set("throughput_per_s", float64(good)/run.window.Seconds(), "1/s")
	rep.set("sustained_rate_per_s", sustainedRate(phaseLat, phaseLag), "1/s")
	rep.set("plan_speedup_geomean", targetGeomean(speedups), "x")
	rep.set("ok_frac", rep.okFrac(), "1")
	rep.set("peak_rss_mb", run.peakMB, "MB")
	return rep, nil
}

// sustainedRate is the highest offered rate that meets the latency
// limit. A phase's score is the larger of its latency tail and the
// longest a request waited in the generator, so a growing backlog fails
// the phase even when the requests that got through were fast. The rate
// is interpolated linearly between the last phase within the limit and
// the first beyond it (scaled down from the first phase when even that
// one misses), so it moves continuously with latency.
func sustainedRate(phaseLat [][]float64, phaseLag []float64) float64 {
	limit := latencyLimit.Seconds()
	score := make([]float64, len(daemonRates))
	for i := range daemonRates {
		score[i] = math.Max(quantile(phaseLat[i], 0.75), phaseLag[i])
	}
	for i, rate := range daemonRates {
		if score[i] <= limit {
			continue
		}
		if i == 0 {
			return rate * limit / score[i]
		}
		lo, hi := daemonRates[i-1], rate
		return lo + (hi-lo)*(limit-score[i-1])/(score[i]-score[i-1])
	}
	return daemonRates[len(daemonRates)-1]
}
