package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/torrent"
)

// server is a launched server process and its control pipe.
type server struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	done chan error
}

// launch starts the server process for w and waits for its address.
func launch(w workload, seed int64, trace bool) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "serve", "--workload", w.name, "--seed", fmt.Sprint(seed), "--trace", tr)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, in: in, out: bufio.NewReader(outPipe), done: make(chan error, 1)}
	line, err := s.readLine(2 * time.Minute)
	if err != nil || !strings.HasPrefix(line, "ready ") {
		s.kill()
		return nil, fmt.Errorf("server did not start (%q, %v)", line, err)
	}
	s.addr = strings.TrimPrefix(line, "ready ")
	return s, nil
}

// readLine reads one line of the server's output within d.
func (s *server) readLine(d time.Duration) (string, error) {
	type got struct {
		line string
		err  error
	}
	ch := make(chan got, 1)
	go func() {
		l, err := s.out.ReadString('\n')
		ch <- got{strings.TrimSpace(l), err}
	}()
	select {
	case g := <-ch:
		return g.line, g.err
	case <-time.After(d):
		s.kill() // unblocks the reader: the pipe closes
		return "", errors.New("server control pipe timed out")
	}
}

// call sends one control line and returns the reply line.
func (s *server) call(cmd string) (string, error) {
	if _, err := fmt.Fprintln(s.in, cmd); err != nil {
		return "", err
	}
	return s.readLine(30 * time.Second)
}

// stats closes the measurement window and parses the server's figures.
func (s *server) stats() (*serverStats, error) {
	line, err := s.call("stats")
	if err != nil {
		return nil, err
	}
	var st serverStats
	if err := json.Unmarshal([]byte(line), &st); err != nil {
		return nil, fmt.Errorf("server stats %q: %w", line, err)
	}
	return &st, nil
}

// stop asks the server to shut down and waits for it to exit.
func (s *server) stop() error {
	fmt.Fprintln(s.in, "quit")
	s.in.Close()
	go func() { s.done <- s.cmd.Wait() }()
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("server did not stop; killed")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.in.Close()
	s.cmd.Wait()
}

// generator drives one workload: it owns the pre-generated inputs and
// the lanes that replay them against a server.
type generator struct {
	w       workload
	seed    int64
	seconds float64
	env     map[string]any

	web    *webStream // web workloads
	corpus *webStream // every corpus file once, to make the cache resident
	meta   *torrent.MetaInfo
	order  []int
	// hashFails counts pieces that failed SHA-1 verification.
	hashFails atomic.Int64

	next      int64 // operation counter across phases
	phases    int64 // open-loop phases run so far
	attempted int64
	failed    int64
	firstErr  error
}

// prepare builds the workload's inputs from the seed, before any timing.
func (g *generator) prepare() error {
	var err error
	switch g.w.name {
	case "bt-leech":
		g.meta, _, err = btContent(g.seed)
		g.order = btStream(g.meta, g.seed)
	default:
		files := loadgen.NewFileSet(corpusDirs)
		g.web, err = newWebStream(files, g.seed, g.w.name == "web-mixed-ka")
		if err == nil {
			g.corpus = corpusStream(files)
		}
	}
	return err
}

// corpusStream requests every corpus file once on a keep-alive
// connection.
func corpusStream(files *loadgen.FileSet) *webStream {
	st := &webStream{}
	for d := 0; d < files.Dirs; d++ {
		for c := 0; c < 4; c++ {
			for f := 1; f <= 9; f++ {
				p := files.Path(d, c, f)
				body, _ := files.Lookup(p)
				st.reqs = append(st.reqs, webReq{kind: kindStatic, path: p, want: body,
					raw: []byte("GET " + p + " HTTP/1.1\r\nHost: bench\r\n\r\n")})
			}
		}
	}
	return st
}

// lanes opens the two connection slots for addr.
func (g *generator) lanes(addr string) []lane {
	out := make([]lane, 2)
	for i := range out {
		switch g.w.name {
		case "bt-leech":
			out[i] = newBTLane(addr, g.meta, g.order, opTimeout, &g.hashFails)
		default:
			out[i] = newWebLane(addr, g.web, g.w.name == "web-mixed-ka", opTimeout)
		}
	}
	return out
}

func closeLanes(ls []lane) {
	for _, l := range ls {
		l.close()
	}
}

// account adds a phase's operations to the run's totals.
func (g *generator) account(p *phase) {
	g.attempted += p.attempted
	g.failed += p.failed
	if g.firstErr == nil {
		g.firstErr = p.firstErr
	}
}

// firstResponse is the set-up probe: one verified operation on a fresh
// connection.
func (g *generator) firstResponse(addr string) error {
	ls := g.lanes(addr)
	defer closeLanes(ls)
	sp := span{}
	clk := clock{origin: time.Now()}
	_, err := ls[0].do(0, &sp, clk)
	g.attempted++
	if err != nil {
		g.failed++
		g.firstErr = err
	}
	return err
}

// start launches a server and times launch to first verified response.
func (g *generator) start(trace bool) (*server, float64, error) {
	t0 := time.Now()
	s, err := launch(g.w, g.seed, trace)
	if err != nil {
		return nil, 0, err
	}
	if err := g.firstResponse(s.addr); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("first response: %w", err)
	}
	return s, time.Since(t0).Seconds(), nil
}

// warm readies a started server for measurement, untimed: every web
// corpus file is requested once (the cache becomes resident), then a
// second of closed-loop traffic runs.
func (g *generator) warm(ctx context.Context, s *server) error {
	if g.corpus != nil {
		wl := newWebLane(s.addr, g.corpus, true, opTimeout)
		defer wl.close()
		var sp span
		for i := range g.corpus.reqs {
			if _, err := wl.do(int64(i), &sp, clock{origin: time.Now()}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	ls := g.lanes(s.addr)
	defer closeLanes(ls)
	var next int64 = 1 << 40 // warm-up operations do not advance the measured stream
	if p := runClosed(ctx, ls, &next, time.Second); p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", p.failed, p.attempted)
	}
	return nil
}

// launchWarm starts a server, warms it, and returns it with its set-up
// time.
func (g *generator) launchWarm(ctx context.Context, trace bool) (*server, float64, error) {
	s, setup, err := g.start(trace)
	if err != nil {
		return nil, 0, err
	}
	if err := g.warm(ctx, s); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, setup, nil
}

func (g *generator) dur(share float64) time.Duration {
	return time.Duration(share * g.seconds * float64(time.Second))
}

// openPhase runs one open-loop phase at rate for d; its arrival
// schedule is drawn from the seed and the phase's position in the run.
func (g *generator) openPhase(ctx context.Context, ls []lane, rate float64, d time.Duration) *phase {
	g.phases++
	rng := rand.New(rand.NewSource(g.seed*7919 + g.phases))
	drain := max(time.Second, d/2)
	p := runOpen(ctx, ls, &g.next, arrivals(rng, rate, d), drain)
	g.account(p)
	return p
}

// rounds runs n rounds of a closed-loop segment and, with an openShare,
// a light and a busy open-loop segment, each share·seconds/n long.
// Interleaving them spreads a slow spell of the machine over every
// metric instead of wiping out one, and the per-round figures give
// medians.
func (g *generator) rounds(ctx context.Context, ls []lane, n int, closedShare, openShare float64) (closed, light, busy []*phase) {
	for r := 0; r < n && ctx.Err() == nil; r++ {
		c := runClosed(ctx, ls, &g.next, g.dur(closedShare/float64(n)))
		g.account(c)
		closed = append(closed, c)
		if openShare > 0 {
			light = append(light, g.openPhase(ctx, ls, g.w.light, g.dur(openShare/float64(n))))
			busy = append(busy, g.openPhase(ctx, ls, g.w.busy, g.dur(openShare/float64(n))))
		}
	}
	return closed, light, busy
}

// perRound is the median over rounds of f.
func perRound(ps []*phase, f func(*phase) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func opsPerSec(p *phase) float64 { return float64(p.ok()) / p.elapsed.Seconds() }
func payloadMbps(p *phase) float64 {
	return float64(p.payload()) * 8 / 1e6 / p.elapsed.Seconds()
}
func latUs(q float64) func(*phase) float64 {
	return func(p *phase) float64 { return quantileUs(p.latencies(), q) }
}
func openUs(q float64) func(*phase) float64 {
	return func(p *phase) float64 { return openQuantile(p, q) / 1e3 }
}

func okOps(ps []*phase) int64 {
	var n int64
	for _, p := range ps {
		n += p.ok()
	}
	return n
}

// untraced measures the end-to-end metrics: set-up, then the closed
// loop for the whole run.
func (g *generator) untraced(ctx context.Context) (*result, error) {
	if err := g.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, setup, err := g.start(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	s, setup, err := g.launchWarm(ctx, false)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	setups = append(setups, setup)

	if _, err := s.call("mark"); err != nil {
		return nil, err
	}
	ls := g.lanes(s.addr)
	defer closeLanes(ls)
	closed, _, _ := g.rounds(ctx, ls, closedRounds, 1, 0)
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":       {interquartileMean(setups), "s"},
		"ops_per_s":     {perRound(closed, opsPerSec), "op/s"},
		"lat_p50_us":    {perRound(closed, latUs(0.50)), "us"},
		"payload_mbps":  {perRound(closed, payloadMbps), "Mb/s"},
		"cpu_us_per_op": {st.CPUus / float64(max(okOps(closed), 1)), "us"},
		"mem_peak_mb":   {float64(st.PeakRSSkB) / 1024, "MB"},
	}
	return g.result(m), nil
}

func (g *generator) result(m map[string]metric) *result {
	if g.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", g.firstErr)
	}
	return &result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}
}

// ladder finds the highest sustained open-loop rate. Starting from the
// busy phase it climbs by ladderGrowth until a step is not sustained,
// then bisects between the last sustained rate and the first one that
// was not.
func (g *generator) ladder(ctx context.Context, ls []lane, light, busy *phase) float64 {
	step := func(rate float64) ladderPoint {
		pt := point(g.openPhase(ctx, ls, rate, g.dur(ladderStep)), rate, g.w)
		fmt.Fprintf(os.Stderr, "perfbench: open loop %.0f/s: p99 %.0f us, sustained %v\n", rate, pt.p99/1e3, pt.ok)
		return pt
	}
	lo, hi := point(light, g.w.light, g.w), point(busy, g.w.busy, g.w)
	if !lo.ok {
		return maxRate(nil, lo, g.w.limit)
	}
	if hi.ok {
		lo = hi
		for k := 0; k < climbSteps && hi.ok && ctx.Err() == nil; k++ {
			if hi = step(lo.rate * ladderGrowth); hi.ok {
				lo = hi
			}
		}
		if hi.ok {
			return hi.rate // the ladder's top was sustained
		}
	}
	for k := 0; k < bisectSteps && ctx.Err() == nil; k++ {
		if mid := step(math.Sqrt(lo.rate * hi.rate)); mid.ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return maxRate(&lo, hi, g.w.limit)
}

// point turns an open-loop phase offered at rate into a ladder point.
func point(p *phase, rate float64, w workload) ladderPoint {
	ok, p99 := sustained(p, w.limit)
	return ladderPoint{rate: rate, p99: p99, ok: ok}
}

// writeSpans saves a traced run's client spans (one row per operation,
// stamps in ns from the phase origin) under the build directory.
func writeSpans(env map[string]any, phases map[string]*phase) (string, error) {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", env["workload"], env["seed"]))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "# %s\nphase,id,due,start,dial_start,dial_done,written,first_byte,end,bytes,err\n", envJSON)
	for name, p := range phases {
		for _, s := range p.spans {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t\n", name, s.id, s.due, s.start,
				s.dialStart, s.dialDone, s.written, s.firstByte, s.end, s.bytes, s.err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
