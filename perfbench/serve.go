package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/bittorrent"
	"github.com/flux-lang/flux/internal/servers/webserver"
)

// corpusDirs sizes the static corpus (~5 MB per directory): it fits the
// server's 64 MB response cache, so web-mixed-ka runs LFU-resident.
const corpusDirs = 4

// served is what the control loop needs from either server.
type served struct {
	addr     string
	shutdown func(context.Context) error
	wait     func() error
	counters func(*serverStats) // cumulative layer counters
}

// serve is the server process: it builds the workload's server through
// its public constructor, starts it, prints "ready <addr>", then answers
// control lines on stdin — "mark" starts a measurement window, "stats"
// prints the window's server-side figures as one JSON line, "quit" (or
// EOF) shuts the server down.
func serve(w workload, seed int64, trace bool) error {
	var obs *traceObserver
	if trace {
		obs = newTraceObserver()
	}
	var srv served
	var cleanup func()
	var err error
	switch w.name {
	case "web-mixed-ka", "web-static-open":
		srv, cleanup, err = serveWeb(w, obs)
	case "bt-leech":
		srv, err = serveBT(seed, obs)
	default:
		err = fmt.Errorf("unknown workload %q", w.name)
	}
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return err
	}
	fmt.Printf("ready %s\n", srv.addr)

	var mark serverStats
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "mark":
			settle()
			if obs != nil {
				obs.reset()
			}
			mark = snapshot(srv)
			fmt.Println("ok")
		case "stats":
			cur := snapshot(srv)
			out, _ := json.Marshal(cur.since(&mark, obs))
			fmt.Println(string(out))
		case "quit":
			return stop(srv)
		}
	}
	return stop(srv)
}

func stop(srv served) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.shutdown(ctx); err != nil {
		return err
	}
	return srv.wait()
}

// serveWeb starts the Flux web server: the steal engine over the
// in-memory corpus for web-mixed-ka, the thread pool over the
// materialized corpus (bodies ≥ 64 KB go out with sendfile) for
// web-static-open.
func serveWeb(w workload, obs *traceObserver) (served, func(), error) {
	files := loadgen.NewFileSet(corpusDirs)
	for d := 0; d < corpusDirs; d++ { // synthesize the whole corpus up front
		for c := 0; c < 4; c++ {
			for f := 1; f <= 9; f++ {
				files.Lookup(files.Path(d, c, f))
			}
		}
	}
	cfg := webserver.Config{Files: files, Engine: runtime.WorkStealing}
	var cleanup func()
	if w.name == "web-static-open" {
		dir := filepath.Join(buildDir, fmt.Sprintf("corpus-%d", os.Getpid()))
		cleanup = func() { os.RemoveAll(dir) }
		if err := files.Materialize(dir); err != nil {
			return served{}, cleanup, err
		}
		cfg.Engine, cfg.PoolSize = runtime.ThreadPool, 8
	}
	if obs != nil {
		cfg.Observer = obs
		cfg.QueueSample = traceQueueSample
	}
	s, err := webserver.New(cfg)
	if err != nil {
		return served{}, cleanup, err
	}
	if err := s.Start(context.Background()); err != nil {
		return served{}, cleanup, err
	}
	return served{
		addr: s.Addr(), shutdown: s.Shutdown, wait: s.Wait,
		counters: func(st *serverStats) {
			ps := s.PlaneStats()
			st.Accepted, st.Admitted, st.Shed = ps.Accepted, ps.Admitted, ps.Shed
			st.CacheHits, st.CacheMisses, st.CacheEvictions = s.CacheStats()
			ds := s.Pages().DynStats()
			st.DynCompiled, st.DynInterpreted = ds.Compiled, ds.Interpreted
			st.flows(s.Stats().Snapshot())
		},
	}, cleanup, nil
}

// serveBT starts the Flux BitTorrent seeder configured like fluxbench
// -exp fig4's flux-event target.
func serveBT(seed int64, obs *traceObserver) (served, error) {
	meta, data, err := btContent(seed)
	if err != nil {
		return served{}, err
	}
	cfg := bittorrent.Config{
		Meta: meta, Content: data,
		Engine:        runtime.EventDriven,
		PoolSize:      64,
		SourceTimeout: 5 * time.Millisecond,
	}
	if obs != nil {
		cfg.Observer = obs
		cfg.QueueSample = traceQueueSample
	}
	s, err := bittorrent.New(cfg)
	if err != nil {
		return served{}, err
	}
	if err := s.Start(context.Background()); err != nil {
		return served{}, err
	}
	return served{
		addr: s.Addr(), shutdown: s.Shutdown, wait: s.Wait,
		counters: func(st *serverStats) {
			ps := s.PlaneStats()
			st.Accepted, st.Admitted, st.Shed = ps.Accepted, ps.Admitted, ps.Shed
			st.Msgs = s.MsgCounts()
			st.flows(s.Stats().Snapshot())
		},
	}, nil
}

// traceQueueSample is the engines' queue-depth sampling period in
// traced runs (the runtime default, 100 ms, gives too few samples).
const traceQueueSample = 10 * time.Millisecond

// serverStats is the server process's view of one measurement window.
// Counters are cumulative in snapshots and deltas after since.
type serverStats struct {
	Elapsed                             float64           `json:"elapsed_s"`
	CPUus                               float64           `json:"cpu_us"`
	PeakRSSkB                           int64             `json:"peak_rss_kb"`
	Accepted, Admitted, Shed            uint64            `json:",omitempty"`
	FlowsCompleted, FlowsErrored, Drops uint64            `json:",omitempty"`
	CacheHits, CacheMisses              uint64            `json:",omitempty"`
	CacheEvictions                      uint64            `json:",omitempty"`
	DynCompiled, DynInterpreted         uint64            `json:",omitempty"`
	Msgs                                map[string]uint64 `json:",omitempty"`
	Allocs, GCCycles                    uint64
	GCPauseP99us, SchedLatP99us         float64
	Trace                               *traceReport `json:",omitempty"`

	at     time.Time
	gcHist *metrics.Float64Histogram
	scHist *metrics.Float64Histogram
}

func (st *serverStats) flows(s runtime.StatsSnapshot) {
	st.FlowsCompleted, st.FlowsErrored, st.Drops = s.Completed, s.Errored, s.Dropped
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
	{Name: "/sched/latencies:seconds"},
}

func snapshot(srv served) serverStats {
	st := serverStats{at: time.Now()}
	srv.counters(&st)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.CPUus = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	}
	st.PeakRSSkB = vmHWM()
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	st.Allocs = s[0].Value.Uint64()
	st.GCCycles = s[1].Value.Uint64()
	st.gcHist = s[2].Value.Float64Histogram()
	st.scHist = s[3].Value.Float64Histogram()
	return st
}

// since turns cumulative snapshot cur into the window opened by mark.
func (cur serverStats) since(mark *serverStats, obs *traceObserver) serverStats {
	d := cur
	d.Elapsed = cur.at.Sub(mark.at).Seconds()
	d.CPUus -= mark.CPUus
	d.Accepted -= mark.Accepted
	d.Admitted -= mark.Admitted
	d.Shed -= mark.Shed
	d.FlowsCompleted -= mark.FlowsCompleted
	d.FlowsErrored -= mark.FlowsErrored
	d.Drops -= mark.Drops
	d.CacheHits -= mark.CacheHits
	d.CacheMisses -= mark.CacheMisses
	d.CacheEvictions -= mark.CacheEvictions
	d.DynCompiled -= mark.DynCompiled
	d.DynInterpreted -= mark.DynInterpreted
	if cur.Msgs != nil {
		d.Msgs = map[string]uint64{}
		for k, v := range cur.Msgs {
			d.Msgs[k] = v - mark.Msgs[k]
		}
	}
	d.Allocs -= mark.Allocs
	d.GCCycles -= mark.GCCycles
	d.GCPauseP99us = histP99us(cur.gcHist, mark.gcHist)
	d.SchedLatP99us = histP99us(cur.scHist, mark.scHist)
	if obs != nil {
		d.Trace = obs.report()
	}
	return d
}

// histP99us is the p99 of the events a runtime/metrics histogram gained
// between two reads, taken at the upper edge of its bucket, in µs.
func histP99us(cur, prev *metrics.Float64Histogram) float64 {
	if cur == nil || prev == nil {
		return 0
	}
	var total uint64
	for i := range cur.Counts {
		total += cur.Counts[i] - prev.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := (total*99 + 99) / 100
	var acc uint64
	for i := range cur.Counts {
		acc += cur.Counts[i] - prev.Counts[i]
		if acc >= need {
			edge := cur.Buckets[i+1]
			if edge > 1e9 { // +Inf: fall back to the lower edge
				edge = cur.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// settle starts a measurement window from a settled heap: set-up
// garbage is collected and returned to the OS and the peak-RSS mark is
// reset to the current RSS, so mem_peak_mb is the window's peak rather
// than whatever the collector happened to leave behind during set-up.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then covers the whole run
}

// vmHWM reads the process's peak resident set size (kB).
func vmHWM() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// traceObserver is the benchmark's runtime.Observer: attached through
// the servers' public Config.Observer in traced runs only, it keeps
// every node call's and flow's duration and every queue sample in
// memory for the window's report.
type traceObserver struct {
	mu    sync.Mutex
	nodes map[string][]int64 // node name -> call durations (ns)
	flows map[string][]int64 // source name -> completed flow durations (ns)
	errs  map[string]int64   // source name -> errored flows
	// Per graph (by source name), over every outcome: flow count, total
	// flow time and total time inside node calls (ns).
	flowN, flowSum, nodeSum map[string]int64
	queues                  map[string]*queueAgg
	steals                  [2]int64 // first and last cumulative steal sample of the window
}

type queueAgg struct {
	sum, n, max int64
}

func newTraceObserver() *traceObserver {
	o := &traceObserver{}
	o.reset()
	return o
}

func (o *traceObserver) reset() {
	o.mu.Lock()
	o.nodes = map[string][]int64{}
	o.flows = map[string][]int64{}
	o.errs = map[string]int64{}
	o.flowN, o.flowSum, o.nodeSum = map[string]int64{}, map[string]int64{}, map[string]int64{}
	o.queues = map[string]*queueAgg{}
	o.steals = [2]int64{-1, -1}
	o.mu.Unlock()
}

func (o *traceObserver) FlowDone(g *core.FlatGraph, _ uint64, outcome runtime.FlowOutcome, elapsed time.Duration) {
	name := g.Source.Name
	o.mu.Lock()
	o.flowN[name]++
	o.flowSum[name] += int64(elapsed)
	switch outcome {
	case runtime.FlowCompleted:
		o.flows[name] = append(o.flows[name], int64(elapsed))
	case runtime.FlowErrored:
		o.errs[name]++
	}
	o.mu.Unlock()
}

func (o *traceObserver) NodeDone(g *core.FlatGraph, v *core.FlatNode, elapsed time.Duration) {
	if v.Node == nil {
		return
	}
	o.mu.Lock()
	o.nodes[v.Node.Name] = append(o.nodes[v.Node.Name], int64(elapsed))
	o.nodeSum[g.Source.Name] += int64(elapsed)
	o.mu.Unlock()
}

func (o *traceObserver) QueueDepth(_ runtime.EngineKind, queue string, depth int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if queue == runtime.QueueSteals {
		if o.steals[0] < 0 {
			o.steals[0] = int64(depth)
		}
		o.steals[1] = int64(depth)
		return
	}
	if runtime.CounterQueue(queue) {
		return
	}
	q := o.queues[queue]
	if q == nil {
		q = &queueAgg{}
		o.queues[queue] = q
	}
	q.sum += int64(depth)
	q.n++
	q.max = max(q.max, int64(depth))
}

// traceReport summarizes the observer's window.
type traceReport struct {
	Nodes  map[string]durStats   `json:"nodes"`
	Flows  map[string]durStats   `json:"flows"`
	Errs   map[string]int64      `json:"errs"`
	Queues map[string][2]float64 `json:"queues"` // mean, max
	Steals int64                 `json:"steals"`
	// Per graph: flows of every outcome, their total time and the total
	// time spent inside node calls (µs).
	FlowCount map[string]int64   `json:"flow_count"`
	FlowTime  map[string]float64 `json:"flow_time_us"`
	NodeTime  map[string]float64 `json:"node_time_us"`
}

type durStats struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean_us"`
	P50  float64 `json:"p50_us"`
	P99  float64 `json:"p99_us"`
}

func summarize(ns []int64) durStats {
	if len(ns) == 0 {
		return durStats{}
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return durStats{N: int64(len(ns)), Mean: float64(sum) / float64(len(ns)) / 1e3,
		P50: quantileUs(ns, 0.5), P99: quantileUs(ns, 0.99)}
}

func (o *traceObserver) report() *traceReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := &traceReport{Nodes: map[string]durStats{}, Flows: map[string]durStats{},
		Errs: o.errs, Queues: map[string][2]float64{}, FlowCount: o.flowN,
		FlowTime: map[string]float64{}, NodeTime: map[string]float64{}}
	for k, v := range o.flowSum {
		r.FlowTime[k] = float64(v) / 1e3
	}
	for k, v := range o.nodeSum {
		r.NodeTime[k] = float64(v) / 1e3
	}
	for k, v := range o.nodes {
		r.Nodes[k] = summarize(v)
	}
	for k, v := range o.flows {
		r.Flows[k] = summarize(v)
	}
	for k, q := range o.queues {
		mean := float64(q.sum) / float64(q.n)
		if strings.HasPrefix(k, "disp") {
			// The steal engine's per-dispatcher deques ("disp0", ...)
			// report as one queue: sampled on the same ticks, the mean of
			// their sum is the sum of their means; max is per deque.
			d := r.Queues["deques"]
			r.Queues["deques"] = [2]float64{d[0] + mean, max(d[1], float64(q.max))}
			continue
		}
		r.Queues[k] = [2]float64{mean, float64(q.max)}
	}
	if o.steals[0] >= 0 {
		r.Steals = o.steals[1] - o.steals[0]
	}
	return r
}
