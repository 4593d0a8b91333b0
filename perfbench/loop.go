package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one operation's client-side timeline. Every stamp is in
// nanoseconds since the phase began; zero means the step did not happen
// (no dial on a reused keep-alive connection, say). All spans of one
// operation share its id.
type span struct {
	id        int64
	due       int64 // when the operation was due (open loop) or taken (closed loop)
	start     int64 // when a lane began it
	dialDone  int64
	dialStart int64
	written   int64 // request fully written
	firstByte int64
	end       int64 // last byte read and verified
	bytes     int64 // verified payload bytes
	err       bool
}

// lane is one of the generator's connection slots. A lane performs one
// operation at a time; the benchmark opens at most one connection per
// lane, so at most len(lanes) connections are ever open.
type lane interface {
	// do performs operation i of the workload's pre-generated stream and
	// verifies its output, filling the span's dial/write/byte stamps
	// through the clock. It returns the verified payload bytes.
	do(i int64, sp *span, clk clock) (int64, error)
	close()
}

// clock turns wall time into nanoseconds since a phase's origin.
type clock struct{ origin time.Time }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// phase is the raw outcome of one closed- or open-loop phase.
type phase struct {
	spans     []span
	elapsed   time.Duration
	attempted int64
	failed    int64
	firstErr  error // the first failure, for the diagnostic line
	// Open loop only: arrivals still not started when the step's last
	// arrival was due, arrivals never started (abandoned after the drain
	// window), the largest backlog a lane saw when it took an arrival,
	// and the generator's own lateness per arrival (how far past due it
	// started an arrival it had been waiting for, with a lane free).
	endBacklog int64
	abandoned  int64
	backlogMax int64
	late       []int64
}

// latencies returns the successful operations' latencies (end - due).
func (p *phase) latencies() []int64 {
	out := make([]int64, 0, len(p.spans))
	for i := range p.spans {
		if !p.spans[i].err {
			out = append(out, p.spans[i].end-p.spans[i].due)
		}
	}
	return out
}

// payload sums the verified payload bytes.
func (p *phase) payload() int64 {
	var n int64
	for i := range p.spans {
		if !p.spans[i].err {
			n += p.spans[i].bytes
		}
	}
	return n
}

// ok counts verified operations.
func (p *phase) ok() int64 { return p.attempted - p.failed }

// runClosed drives every lane back to back for d: each lane issues its
// next operation as soon as the previous one is verified. Operations
// are numbered from next, which advances past the ones issued.
func runClosed(ctx context.Context, lanes []lane, next *int64, d time.Duration) *phase {
	clk := clock{origin: time.Now()}
	deadline := int64(d)
	per := make([][]span, len(lanes))
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for li, ln := range lanes {
		wg.Add(1)
		go func(li int, ln lane) {
			defer wg.Done()
			for ctx.Err() == nil {
				t := clk.now()
				if t >= deadline {
					return
				}
				i := atomic.AddInt64(next, 1) - 1
				sp := span{id: i, due: t, start: t}
				b, err := ln.do(i, &sp, clk)
				sp.end = clk.now()
				sp.bytes = b
				sp.err = err != nil
				if err != nil && errs[li] == nil {
					errs[li] = err
				}
				per[li] = append(per[li], sp)
			}
		}(li, ln)
	}
	wg.Wait()
	return collect(per, errs, time.Since(clk.origin))
}

func collect(per [][]span, errs []error, elapsed time.Duration) *phase {
	p := &phase{elapsed: elapsed}
	for _, err := range errs {
		if err != nil && p.firstErr == nil {
			p.firstErr = err
		}
	}
	for _, s := range per {
		p.spans = append(p.spans, s...)
	}
	for i := range p.spans {
		p.attempted++
		if p.spans[i].err {
			p.failed++
		}
	}
	return p
}

// arrivals draws a Poisson arrival schedule: due times (ns from the
// phase origin) with exponential gaps at rate per second, up to d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			return out
		}
		out = append(out, int64(t))
	}
}

// runOpen drives the lanes open-loop: operation k is due at dues[k]
// whatever happened to earlier ones. A free lane takes the oldest
// arrival not yet started and, if it is not due yet, sleeps until it is;
// arrivals due while every lane is busy wait in the generator (the
// backlog) instead of being dropped. Latency is timed from the due time,
// so a stall is charged to every arrival queued behind it. Arrivals not
// started within drain after the last due time are abandoned.
func runOpen(ctx context.Context, lanes []lane, next *int64, dues []int64, drain time.Duration) *phase {
	clk := clock{origin: time.Now()}
	var taken atomic.Int64
	last := int64(0)
	if len(dues) > 0 {
		last = dues[len(dues)-1]
	}
	cutoff := last + int64(drain)
	base := atomic.AddInt64(next, int64(len(dues))) - int64(len(dues))

	type laneOut struct {
		spans      []span
		late       []int64
		endBacklog int64
		backlogMax int64
		err        error
	}
	outs := make([]laneOut, len(lanes))
	var wg sync.WaitGroup
	for li, ln := range lanes {
		wg.Add(1)
		go func(o *laneOut, ln lane) {
			defer wg.Done()
			precise := preciseSleeper()
			defer precise.release()
			for ctx.Err() == nil {
				k := taken.Add(1) - 1
				if k >= int64(len(dues)) {
					return
				}
				due := dues[k]
				now := clk.now()
				if now >= cutoff {
					return // the rest are abandoned
				}
				if now < due {
					precise.sleep(time.Duration(due - now))
					now = clk.now()
					o.late = append(o.late, now-due)
				} else {
					// Arrivals due by now and not yet taken, this one
					// included.
					b := int64(sort.Search(len(dues), func(j int) bool { return dues[j] > now })) - k
					if b > o.backlogMax {
						o.backlogMax = b
					}
				}
				if now > last {
					o.endBacklog++
				}
				sp := span{id: base + k, due: due, start: now}
				b, err := ln.do(base+k, &sp, clk)
				sp.end = clk.now()
				sp.bytes = b
				sp.err = err != nil
				if err != nil && o.err == nil {
					o.err = err
				}
				o.spans = append(o.spans, sp)
			}
		}(&outs[li], ln)
	}
	wg.Wait()
	per := make([][]span, len(outs))
	errs := make([]error, len(outs))
	p := &phase{}
	for i, o := range outs {
		per[i], errs[i] = o.spans, o.err
		p.late = append(p.late, o.late...)
		p.endBacklog += o.endBacklog
		if o.backlogMax > p.backlogMax {
			p.backlogMax = o.backlogMax
		}
	}
	c := collect(per, errs, time.Duration(last))
	c.late, c.endBacklog, c.backlogMax = p.late, p.endBacklog, p.backlogMax
	c.abandoned = int64(len(dues)) - c.attempted
	return c
}

// merge pools several phases' operations into one.
func merge(ps []*phase) *phase {
	m := &phase{}
	for _, p := range ps {
		m.spans = append(m.spans, p.spans...)
		m.elapsed += p.elapsed
		m.attempted += p.attempted
		m.failed += p.failed
		if m.firstErr == nil {
			m.firstErr = p.firstErr
		}
		m.endBacklog += p.endBacklog
		m.abandoned += p.abandoned
		m.backlogMax = max(m.backlogMax, p.backlogMax)
		m.late = append(m.late, p.late...)
	}
	return m
}

// openQuantile is an open-loop quantile (ns, timed from due time) over
// every arrival, with failed and abandoned ones counted as samples over
// any limit.
func openQuantile(p *phase, q float64) float64 {
	lat := p.latencies()
	over := p.failed + p.abandoned
	all := make([]float64, 0, len(lat)+int(over))
	for _, v := range lat {
		all = append(all, float64(v))
	}
	for i := int64(0); i < over; i++ {
		all = append(all, math.Inf(1))
	}
	return quantile(all, q)
}

// sustained reports whether an open-loop step kept up: its p99 (from
// due time, failures over the limit) meets limit and the backlog did not
// grow — at most a small tail of arrivals was still waiting when the
// step's last arrival came due.
func sustained(p *phase, limit time.Duration) (bool, float64) {
	p99 := openQuantile(p, 0.99)
	n := int64(len(p.spans)) + p.abandoned
	backlogOK := p.endBacklog+p.abandoned <= max(16, n/50)
	return p99 <= float64(limit) && backlogOK, p99
}

// ladderPoint is one measured rate of the open loop.
type ladderPoint struct {
	rate float64
	p99  float64 // ns; +Inf when arrivals failed or were abandoned
	ok   bool
}

// maxRate interpolates the highest sustained rate between lo, the
// highest sustained ladder point (nil if none was), and hi, the lowest
// one that was not: linearly on their p99s when hi missed on latency
// alone, so the figure moves continuously with the server's speed
// rather than by whole steps; at lo when hi failed, abandoned arrivals
// or let the backlog grow. With no sustained point, hi's rate is scaled
// by limit/p99.
func maxRate(lo *ladderPoint, hi ladderPoint, limit time.Duration) float64 {
	lim := float64(limit)
	if lo == nil {
		if math.IsInf(hi.p99, 1) || hi.p99 <= lim {
			return hi.rate / 2
		}
		return hi.rate * lim / hi.p99
	}
	frac := 0.0
	if !math.IsInf(hi.p99, 1) && hi.p99 > lim && hi.p99 > lo.p99 {
		frac = math.Min(1, (lim-lo.p99)/(hi.p99-lo.p99))
	}
	return lo.rate + frac*(hi.rate-lo.rate)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quantileInt is quantile over int64 nanoseconds, returned in µs.
func quantileUs(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return quantile(xs, q)
}

// interquartileMean averages the middle half of xs. Launch-to-first-
// response time is bimodal on some servers (the BitTorrent seeder's
// falls near 42 or 63 ms), so a median flips between the modes from run
// to run; the mean of the middle half moves smoothly and still ignores
// the outliers a median would.
func interquartileMean(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	c = c[len(c)/4 : len(c)-len(c)/4]
	var sum float64
	for _, x := range c {
		sum += x
	}
	return sum / float64(len(c))
}

// median of a small sample.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}
