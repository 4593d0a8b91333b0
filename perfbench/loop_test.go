package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
)

// fakeServer is a stand-in HTTP server that answers every request with
// the corpus body after delay(n), where n counts requests from 0. One
// mutex serializes the delays, so a long one stalls every connection —
// the whole server — not just its own.
type fakeServer struct {
	ln    net.Listener
	files *loadgen.FileSet
	delay func(n int) time.Duration

	mu sync.Mutex
	n  int
	wg sync.WaitGroup
}

func startFake(t *testing.T, delay func(int) time.Duration) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{ln: ln, files: loadgen.NewFileSet(1), delay: delay}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.handle(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

// handle serves Connection: close requests: one per connection.
func (f *fakeServer) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if h == "\r\n" {
			break
		}
	}
	var path string
	fmt.Sscanf(line, "GET %s HTTP/1.1", &path)
	body, _ := f.files.Lookup(path)
	f.mu.Lock()
	d := f.delay(f.n)
	f.n++
	time.Sleep(d)
	f.mu.Unlock()
	fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", len(body))
	c.Write(body)
}

func fakeLanes(t *testing.T, f *fakeServer) []lane {
	t.Helper()
	st, err := newWebStream(f.files, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := []lane{
		newWebLane(f.ln.Addr().String(), st, false, 5*time.Second),
		newWebLane(f.ln.Addr().String(), st, false, 5*time.Second),
	}
	t.Cleanup(func() { closeLanes(ls) })
	return ls
}

// A stall charges every arrival queued behind it: latency runs from the
// due time, so arrivals that waited in the generator while both
// connections were stuck show the wait, where timing from when a lane
// got to them would hide it.
func TestOpenLoopLatencyIncludesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	f := startFake(t, func(n int) time.Duration {
		if n == 20 {
			return stall
		}
		return 0
	})
	ls := fakeLanes(t, f)
	var next int64
	dues := make([]int64, 200) // 200/s for one second, evenly spaced
	for i := range dues {
		dues[i] = int64(i) * int64(5*time.Millisecond)
	}
	p := runOpen(context.Background(), ls, &next, dues, time.Second)
	if p.failed != 0 || p.abandoned != 0 {
		t.Fatalf("failed %d, abandoned %d", p.failed, p.abandoned)
	}
	var charged, hidden int
	for _, s := range p.spans {
		if s.end-s.due >= int64(stall/3) {
			charged++
		}
		if s.end-s.start >= int64(stall/3) {
			hidden++
		}
	}
	// About stall/5ms = 60 arrivals fall due during the stall; only the
	// one or two operations in flight when it began were slow on the wire.
	if charged < 30 {
		t.Errorf("%d arrivals charged with the stall, want ≥ 30", charged)
	}
	if hidden > 2 {
		t.Errorf("%d operations slow from their own start, want ≤ 2", hidden)
	}
	if p99 := openQuantile(p, 0.99); p99 < float64(stall/2) {
		t.Errorf("p99 %v from due time does not show the %v stall", time.Duration(p99), stall)
	}
	if p.backlogMax < 30 {
		t.Errorf("backlog max %d, want the stalled arrivals (≥ 30)", p.backlogMax)
	}
}

// A rate the server cannot sustain is rejected by the backlog check
// even under a generous latency limit; a rate it can sustain passes.
func TestOpenLoopRejectsUnsustainableRate(t *testing.T) {
	// 4 ms per request, serialized: capacity 250/s.
	f := startFake(t, func(int) time.Duration { return 4 * time.Millisecond })
	ls := fakeLanes(t, f)
	var next int64
	const limit = 10 * time.Second // only the backlog can fail a step
	rng := rand.New(rand.NewSource(1))

	over := runOpen(context.Background(), ls, &next, arrivals(rng, 600, 800*time.Millisecond), 200*time.Millisecond)
	if ok, _ := sustained(over, limit); ok {
		t.Errorf("600/s against a 250/s server sustained (end backlog %d, abandoned %d)", over.endBacklog, over.abandoned)
	}
	under := runOpen(context.Background(), ls, &next, arrivals(rng, 60, 800*time.Millisecond), time.Second)
	if ok, p99 := sustained(under, limit); !ok {
		t.Errorf("60/s against a 250/s server not sustained (p99 %v, end backlog %d)", time.Duration(p99), under.endBacklog)
	}
	if under.failed != 0 || over.failed != 0 {
		t.Errorf("failed operations: %d, %d", under.failed, over.failed)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	limit := 10 * time.Millisecond
	lo := ladderPoint{rate: 1000, p99: float64(5 * time.Millisecond), ok: true}
	hi := ladderPoint{rate: 1200, p99: float64(15 * time.Millisecond)}
	if got := maxRate(&lo, hi, limit); got < 1099 || got > 1101 {
		t.Errorf("maxRate = %v, want 1100 (p99 crosses the limit halfway)", got)
	}
	hi.p99 = float64(8 * time.Millisecond) // failed on backlog, not latency
	if got := maxRate(&lo, hi, limit); got != 1000 {
		t.Errorf("maxRate = %v, want the last sustained rate 1000", got)
	}
	if got := maxRate(nil, ladderPoint{rate: 400, p99: float64(20 * time.Millisecond)}, limit); got != 200 {
		t.Errorf("maxRate with nothing sustained = %v, want 200", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	// Nine launches: the two fastest and two slowest are dropped.
	xs := []float64{100, 42, 63, 42, 63, 1, 63, 42, 63}
	if got := interquartileMean(xs); got != (42+42+63+63+63)/5.0 {
		t.Errorf("interquartileMean = %v", got)
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2}, 0.99); got < 1.98 || got > 1.995 {
		t.Errorf("p99 of {1,2} = %v", got)
	}
}
