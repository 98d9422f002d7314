package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lulesh/internal/perf"
	"lulesh/internal/serve"
)

// serve-open drives an in-process serve.Manager through its HTTP handler,
// without sockets. Tenants' clients each keep one job in flight: submit,
// follow its SSE stream to the terminal frame, submit the next. Half the
// run has few clients, half many (serveClients). A job's latency
// runs from its submission to its terminal SSE frame.
//
// The loop is closed on purpose. Offered as an open-loop Poisson stream
// at 25-90% of capacity, the latency percentiles of this workload moved
// by 40-100% (quartile spread over median) between runs on a shared
// 2-CPU virtual machine whose speed drifts by 20-30%; with a fixed
// number of clients they move by about 10%.
const (
	// serveLatencyLimit is the p95 latency limit goodput counts against.
	serveLatencyLimit = 500 * time.Millisecond
	serveTenants      = 4
	serveWarmup       = 1 * time.Second
	// serveWindows is how many equal time slices of a phase its latency
	// percentiles are taken over (each slice needs 200 jobs for a p95).
	serveWindows = 4
	// serveDrainLimit bounds the wait for a phase's last jobs; past it
	// the manager is drained and unfinished jobs count as failed.
	serveDrainLimit = 60 * time.Second
)

// serveClients returns the client counts of the two load levels, from
// the manager's default executor count (serve.Config.MaxRunning, 4 ×
// workers): the low load has half as many clients as executors, so no
// job waits for one and the pool is partly idle; the high load has
// twice as many, so jobs also wait in the fair queue.
func serveClients(workers int) (low, high int) {
	executors := 4 * workers
	return executors / 2, 2 * executors
}

// mixJob is one entry of the served job mix.
type mixJob struct {
	scenario         string
	size, iterations int
}

// serveDeck is luleshd's self-test load mix (selftestSpec in
// cmd/luleshd), the mix of the 500-job run in EXPERIMENTS.md: job i runs
// scenario i%3 of sedov, piston and multimat:regions=8 at size 4+i%3 for
// 6+i%5 cycles. Scenario and size share their period, so the sedov jobs
// are 4³, the piston jobs 5³ and the multimat jobs, with eight EOS
// regions, the largest at 6³. The deck is the mix's 15-job period; its
// last job is the largest, multimat 6³ for 10 cycles.
func serveDeck() []mixJob {
	scenarios := []string{"sedov", "piston", "multimat:regions=8"}
	deck := make([]mixJob, 15)
	for i := range deck {
		deck[i] = mixJob{scenarios[i%3], 4 + i%3, 6 + i%5}
	}
	return deck
}

// jobRun is everything the client saw of one job.
type jobRun struct {
	jobOutcome
	phase    int
	spec     mixJob
	tenant   string
	admit    time.Duration // POST handler time
	id       string
	state    string
	steps    []float64 // live inter-progress intervals, ms
	final    progressFrame
	status   serve.JobStatus
	record   perf.BenchRecord
	recordOK bool
}

func runServe(rc *runConfig) (*report, error) {
	dir, err := os.MkdirTemp(rc.outDir, "serve-results-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rp := newReport()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Set-up: a manager is ready once it has served a first job end to
	// end (pool, executors, store, SSE), the mix's largest. NewManager
	// alone takes about 0.1 ms, and with the smallest job the set-up
	// takes about 2 ms, a third of the samples 3-10 ms: goroutine and
	// virtual-CPU wake-ups, which moved the median by up to 60% between
	// runs.
	deck := serveDeck()
	managers := 0
	newManager := func() (*serve.Manager, error) {
		managers++
		return serve.NewManager(serve.Config{
			Workers:    rc.workers,
			ResultsDir: filepath.Join(dir, fmt.Sprintf("m%d", managers)),
			StealHalf:  true, // luleshd's default
		})
	}
	setup, err := coldSetups(setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		m, err := newManager()
		if err != nil {
			return 0, err
		}
		defer m.Close()
		first := &jobRun{spec: deck[len(deck)-1], tenant: "set-up"}
		first.Due = t0
		runJobClient(ctx, m.Handler(), first)
		took := time.Since(t0)
		if first.state != "done" {
			return 0, fmt.Errorf("set-up job ended in state %q", first.state)
		}
		return took, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := newManager()
	if err != nil {
		return nil, err
	}
	h := m.Handler()
	abort := func(phase int) func() {
		return func() {
			m.Drain(time.Second)
			cancel()
			rp.notef("phase %d: jobs still open after %v; drained", phase, serveDrainLimit)
		}
	}

	// Warm-up, not measured: the heap and the pool reach their working
	// size under load before the first measured phase.
	rng := rand.New(rand.NewSource(rc.seed))
	low, high := serveClients(rc.workers)
	settle()
	runPhase(ctx, h, rng, deck, high, serveWarmup, -1, abort(-1))

	span := rc.seconds / 2
	cpu0, g0 := cpuTime(), readGo()
	var jobs []*jobRun
	var phaseWindow [2]time.Duration
	var backlogEnd int
	for phase, clients := range []int{low, high} {
		settle()
		pj, window, backlog := runPhase(ctx, h, rng, deck, clients, span, phase, abort(phase))
		jobs = append(jobs, pj...)
		phaseWindow[phase] = window
		backlogEnd = backlog
	}
	cpu := cpuTime() - cpu0
	g1 := readGo()
	if err := m.Close(); err != nil {
		rp.notef("manager close: %v", err)
	}

	// Output check and the record-consistency count.
	inconsistent := 0
	for _, j := range jobs {
		rp.attempted++
		switch {
		case j.Refused:
			rp.failed++
		case j.state != "done" || !j.recordOK:
			rp.wrong++
			rp.notef("%s (%s): state %q", j.id, serveKey(j.spec.scenario, j.spec.size, j.spec.iterations), j.state)
		default:
			// The origin energy stays 0 in a piston job (the shock
			// does not reach the origin in so few cycles); the final
			// simulation time, the sum of every cycle's dt over the
			// whole domain, checks those jobs too.
			want := refs.Serve[serveKey(j.spec.scenario, j.spec.size, j.spec.iterations)]
			got, has := j.record.Counters["origin_energy"]
			if !has || got != want.Origin || j.record.Iterations != j.spec.iterations ||
				j.final.Cycle != j.spec.iterations || j.final.Time != want.Time {
				rp.wrong++
				rp.notef("%s: origin_energy %v, final frame cycle %d time %v; reference %v at cycle %d time %v",
					j.id, got, j.final.Cycle, j.final.Time, want.Origin, j.spec.iterations, want.Time)
			} else {
				j.OK = true
			}
			zc := math.Pow(float64(j.record.Size), 3) * float64(j.record.Iterations)
			if expect := zc / j.record.ElapsedSec; math.Abs(j.record.FOM-expect) > 0.01*expect {
				inconsistent++
			}
		}
	}

	rp.e2e["setup_s"] = median(setup)
	if err := serveE2E(rp.e2e, jobs, span, phaseWindow[1], cpu); err != nil {
		return nil, err
	}
	if err := serveLatencies(rp.e2e, jobs, span); err != nil {
		return nil, err
	}
	l := rp.layer
	l["serve.records_inconsistent"] = float64(inconsistent)
	l["loadgen.backlog_end"] = float64(backlogEnd)
	// The serve workload has no tracing switch to measure: its spans are
	// built after the phases from timestamps every run takes, and
	// serve.runJob attaches a per-job profiler whether traced or not.
	l["trace.overhead_pct"] = 0
	capacity := (phaseWindow[0] + phaseWindow[1]) * time.Duration(rc.workers)
	if err := serveLayers(l, jobs, capacity); err != nil {
		return nil, err
	}
	goDelta(l, g0, g1, jobCycles(jobs))
	if rc.spans != nil {
		jobSpans(rc.spans, jobs)
	}
	return rp, nil
}

// runPhase runs clients closed-loop clients for span and waits until
// every job they submitted has reached a terminal frame; if that takes
// longer than serveDrainLimit it calls abort, which must make the open
// clients return. Jobs come from deck in a seeded order, each
// client with its own seeded tenant choice. It returns the jobs, the
// phase's window (start to last terminal frame) and how many jobs were
// still open when the phase stopped submitting.
func runPhase(ctx context.Context, h http.Handler, rng *rand.Rand, deck []mixJob,
	clients int, span time.Duration, phase int, abort func()) ([]*jobRun, time.Duration, int) {

	order := rng.Perm(len(deck))
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var (
		mu   sync.Mutex
		jobs []*jobRun
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenants := rand.New(rand.NewSource(seeds[c]))
			for k := 0; time.Since(start) < span; k++ {
				j := &jobRun{phase: phase, spec: deck[order[(c+k*clients)%len(deck)]],
					tenant: fmt.Sprintf("tenant-%d", tenants.Intn(serveTenants))}
				j.Due = time.Now()
				runJobClient(ctx, h, j)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(span + serveDrainLimit):
		abort()
		<-done
	}
	end, open := start, 0
	stop := start.Add(span)
	for _, j := range jobs {
		if j.Terminal.After(end) {
			end = j.Terminal
		}
		if !j.Refused && (j.Terminal.IsZero() || j.Terminal.After(stop)) {
			open++
		}
	}
	return jobs, end.Sub(start), open
}

// runJobClient submits one job through the handler, follows its SSE
// stream to the terminal frame, then reads its status and stored record.
func runJobClient(ctx context.Context, h http.Handler, j *jobRun) {
	body, _ := json.Marshal(serve.JobSpec{
		Scenario: j.spec.scenario, Size: j.spec.size, Iterations: j.spec.iterations,
		Backend: "task", Tenant: j.tenant,
	})
	j.Submitted = time.Now()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	j.admit = time.Since(j.Submitted)
	if rr.Code != http.StatusAccepted {
		j.Refused = true
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		return
	}
	j.id = st.ID

	sse := &sseClient{hdr: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+j.id+"/events", nil).WithContext(ctx)
	h.ServeHTTP(sse, req)
	j.Terminal, j.state, j.steps = sse.terminal, sse.terminalName, sse.intervals()
	_ = json.Unmarshal([]byte(sse.lastProgress), &j.final)

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+j.id, nil))
	_ = json.Unmarshal(rr.Body.Bytes(), &j.status)
	if j.state != "done" {
		return
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+j.id+"/result", nil))
	j.recordOK = rr.Code == http.StatusOK && json.Unmarshal(rr.Body.Bytes(), &j.record) == nil
}

// progressFrame is the part of a progress event the output check reads.
// The server formats the numbers with %g, the shortest text that reads
// back as the same float64.
type progressFrame struct {
	Cycle int     `json:"cycle"`
	Time  float64 `json:"time"`
}

// sseClient is an http.ResponseWriter that parses the event stream as the
// handler writes it and timestamps every frame. Frames written before the
// handler's first Flush are the replayed backlog; only frames after it
// are timed as live.
type sseClient struct {
	hdr          http.Header
	buf          []byte
	live         bool
	progress     []time.Time // live progress frames
	lastProgress string      // data of the last progress frame, live or replayed
	terminal     time.Time
	terminalName string
}

func (c *sseClient) Header() http.Header { return c.hdr }
func (c *sseClient) WriteHeader(int)     {}
func (c *sseClient) Flush()              { c.live = true }

func (c *sseClient) Write(p []byte) (int, error) {
	now := time.Now()
	c.buf = append(c.buf, p...)
	for {
		i := bytes.Index(c.buf, []byte("\n\n"))
		if i < 0 {
			break
		}
		frame := string(c.buf[:i])
		c.buf = c.buf[i+2:]
		name, data := "", ""
		for _, line := range strings.Split(frame, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				name = v
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				data = v
			}
		}
		switch name {
		case "progress":
			c.lastProgress = data
			if c.live {
				c.progress = append(c.progress, now)
			}
		case "done", "failed", "cancelled":
			c.terminal, c.terminalName = now, name
		}
	}
	return len(p), nil
}

// intervals returns the wall time between consecutive live progress
// frames — the client-observed cycle latency — in ms.
func (c *sseClient) intervals() []float64 {
	var out []float64
	for i := 1; i < len(c.progress); i++ {
		out = append(out, ms(c.progress[i].Sub(c.progress[i-1])))
	}
	return out
}

func jobCycles(jobs []*jobRun) int {
	n := 0
	for _, j := range jobs {
		if j.OK {
			n += j.record.Iterations
		}
	}
	return n
}

// windows splits each phase into serveWindows equal slices by due time
// and returns, per slice of both phases in order, the values pick gives
// for the correctly completed jobs in it.
func windows(jobs []*jobRun, span time.Duration, pick func(*jobRun) []float64) [][]float64 {
	var first [2]time.Time
	for _, j := range jobs {
		if f := &first[j.phase]; f.IsZero() || j.Due.Before(*f) {
			*f = j.Due
		}
	}
	out := make([][]float64, 2*serveWindows)
	for _, j := range jobs {
		if !j.OK {
			continue
		}
		w := int(int64(serveWindows) * int64(j.Due.Sub(first[j.phase])) / int64(span))
		w = min(max(w, 0), serveWindows-1)
		out[j.phase*serveWindows+w] = append(out[j.phase*serveWindows+w], pick(j)...)
	}
	return out
}

// serveE2E fills grind, CPU, step-latency, RSS and goodput for the served
// jobs. Grind is the median job's, derived from each record's size,
// iterations and elapsed time, not from its fom_zps field.
func serveE2E(e map[string]float64, jobs []*jobRun, span, highWindow, cpu time.Duration) error {
	var grind []float64
	var zc float64
	var high []jobOutcome
	for _, j := range jobs {
		if j.phase == 1 {
			high = append(high, j.jobOutcome)
		}
		if !j.OK {
			continue
		}
		jzc := math.Pow(float64(j.record.Size), 3) * float64(j.record.Iterations)
		grind = append(grind, 1e6*j.record.ElapsedSec/jzc)
		zc += jzc
	}
	if zc > 0 {
		e["grind_us_zc"] = median(grind)
		e["cpu_us_zc"] = us(cpu) / zc
	}
	e["rss_peak_mb"] = peakRSSMB()
	e["goodput_jps"] = goodput(high, serveLatencyLimit, highWindow)
	steps := windows(jobs, span, func(j *jobRun) []float64 { return j.steps })
	for _, q := range []struct {
		name string
		q    float64
	}{{"step_ms_p50", 0.5}, {"step_ms_p90", 0.9}} {
		v, err := windowedQuantile(steps, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		e[q.name] = v
	}
	return nil
}

// serveLatencies fills the per-load latency percentiles: the median over
// a phase's windows of each window's percentile.
func serveLatencies(e map[string]float64, jobs []*jobRun, span time.Duration) error {
	lat := windows(jobs, span, func(j *jobRun) []float64 {
		l, _ := j.latency()
		return []float64{ms(l)}
	})
	for phase, name := range []string{"low", "high"} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p95", 0.95}} {
			v, err := windowedQuantile(lat[phase*serveWindows:(phase+1)*serveWindows], q.q)
			if err != nil {
				return fmt.Errorf("%s-load latency: %w", name, err)
			}
			e["latency_"+name+"_ms_"+q.suffix] = v
		}
	}
	return nil
}

// serveLayers fills the serve, loadgen, amt and kernels layer metrics:
// service stages from JobStatus and the stored BenchRecord, the
// scheduler and kernels from the per-job phase tables in the records.
// The shared pool's own counters cannot be used: every job's core.Run
// calls ResetCounters, which restarts the epoch of the whole pool, so a
// snapshot covers only the time since the latest job started. capacity
// is the phases' wall time × pool workers.
func serveLayers(m map[string]float64, jobs []*jobRun, capacity time.Duration) error {
	var admit, late, qwait, run, overhead, notify []float64
	var phaseBusy = map[string]time.Duration{}
	var phaseN = map[string]int64{}
	var p50s, p50w []float64
	var recQwait, recBusy time.Duration
	var recSteals int64
	var cycles int
	var zc float64
	// The task graph of a spec is fixed, so every record of one spec
	// should count the same tasks; specTasks keeps the largest count seen.
	jobTasks := map[*jobRun]int64{}
	specTasks := map[mixJob]int64{}
	refused := 0
	for _, j := range jobs {
		late = append(late, ms(j.Submitted.Sub(j.Due)))
		admit = append(admit, us(j.admit))
		if j.Refused {
			refused++
			continue
		}
		if !j.OK {
			continue
		}
		statusRun := time.Duration(j.status.ElapsedSec * float64(time.Second))
		qwait = append(qwait, j.status.QueueWaitUs/1e3)
		run = append(run, 1e3*j.record.ElapsedSec)
		overhead = append(overhead, 1e3*(j.status.ElapsedSec-j.record.ElapsedSec))
		finished := j.Submitted.Add(time.Duration(j.status.QueueWaitUs*1e3) + statusRun)
		notify = append(notify, ms(j.Terminal.Sub(finished)))
		cycles += j.record.Iterations
		zc += math.Pow(float64(j.record.Size), 3) * float64(j.record.Iterations)
		for _, ps := range j.record.Phases {
			phaseBusy[ps.Name] += ps.Busy
			phaseN[ps.Name] += ps.Count
			recQwait += ps.QueueWait
			recBusy += ps.Busy
			recSteals += ps.Steals
			jobTasks[j] += ps.Count
			p50s = append(p50s, us(ps.P50))
			p50w = append(p50w, float64(ps.Count))
		}
		specTasks[j.spec] = max(specTasks[j.spec], jobTasks[j])
	}
	for name, xs := range map[string][]float64{
		"serve.admit_us": admit, "serve.queue_wait_ms": qwait,
	} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p95", 0.95}} {
			v, err := quantile(xs, q.q)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			m[name+q.suffix] = v
		}
	}
	m["serve.run_ms_p50"] = median(run)
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.notify_ms_p50"] = median(notify)
	m["serve.rejected_ratio"] = float64(refused) / float64(len(jobs))
	// A p99 needs 1000 submissions; with fewer the maximum stands in, which
	// can only overstate the lateness.
	if v, err := quantile(late, 0.99); err == nil {
		m["loadgen.late_ms_p99"] = v
	} else {
		m["loadgen.late_ms_p99"] = maxOf(late)
	}
	if cycles == 0 {
		return nil
	}
	for _, ph := range kernelPhases {
		m["kernels."+ph+".busy_ns_zc"] = float64(phaseBusy[ph]) / zc
		m["kernels."+ph+".tasks_per_cycle"] = float64(phaseN[ph]) / float64(cycles)
	}
	perCycle := func(x float64) float64 { return x / float64(cycles) }
	var tasks, mismatch int64
	for j, n := range jobTasks {
		tasks += n
		mismatch += n - specTasks[j.spec]
	}
	m["amt.tasks_per_cycle"] = perCycle(float64(tasks))
	// Stolen frames: the records count executed tasks that a steal moved.
	m["amt.steals_per_cycle"] = perCycle(float64(recSteals))
	m["amt.queue_wait_ms_per_cycle"] = perCycle(ms(recQwait))
	m["amt.task_us_p50"] = weightedMedian(p50s, p50w)
	if capacity > 0 {
		m["amt.utilization"] = float64(recBusy) / float64(capacity)
	}
	// A record snapshots its job's profiler before the backend
	// quiesces; a negative mismatch counts the tasks records missed.
	m["amt.count_mismatch"] = float64(mismatch)
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// jobSpans records job → submit → queue → run → notify per job, one row
// per concurrently open job.
func jobSpans(l *spanLog, jobs []*jobRun) {
	var open []*jobRun
	for _, j := range jobs {
		if !j.Terminal.IsZero() && !j.Refused {
			open = append(open, j)
		}
	}
	sort.Slice(open, func(a, b int) bool { return open[a].Due.Before(open[b].Due) })
	starts := make([]time.Time, len(open))
	ends := make([]time.Time, len(open))
	for i, j := range open {
		starts[i], ends[i] = j.Due, j.Terminal
	}
	for i, row := range lanes(starts, ends) {
		j, tid := open[i], 1+row
		id := l.add("job "+j.spec.scenario, tid, j.Due, j.Terminal, 0)
		l.add("submit", tid, j.Submitted, j.Submitted.Add(j.admit), id)
		started := j.Submitted.Add(time.Duration(j.status.QueueWaitUs * 1e3))
		finished := started.Add(time.Duration(j.status.ElapsedSec * float64(time.Second)))
		l.add("queue", tid, j.Submitted, started, id)
		l.add("run", tid, started, finished, id)
		l.add("notify", tid, finished, j.Terminal, id)
	}
}
