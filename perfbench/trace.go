package main

import (
	"context"
	"fmt"
	"os"
	"slices"
)

// webNodes and btNodes are the server nodes whose service time the
// traced run reports.
var (
	webNodes = []string{"ReadRequest", "CheckCache", "ReadFile", "StoreInCache", "RunScript", "HandlePost", "SendResponse", "Complete"}
	btNodes  = []string{"CheckSockets", "ReadMessage", "Request", "MessageDone", "Handshake"}
	queues   = []string{"admission", "inject", "async", "events", "deques"}
	btMsgs   = []string{"request", "interested", "keepalive"}
)

// traced measures the per-layer metrics. A first, untraced server runs
// the open loop — closed-loop segments (the tracing-overhead baseline)
// interleaved with the light and busy rates, then the rate ladder. A
// second server with the benchmark's Observer attached runs closed,
// light and busy rounds while the client records every operation's
// spans.
func (g *generator) traced(ctx context.Context) (*result, error) {
	if err := g.prepare(); err != nil {
		return nil, err
	}
	s, _, err := g.launchWarm(ctx, false)
	if err != nil {
		return nil, err
	}
	ls := g.lanes(s.addr)
	base, light, busy := g.rounds(ctx, ls, openRounds, openClosedShare, openShare)
	maxRate := g.ladder(ctx, ls, merge(light), merge(busy))
	closeLanes(ls)
	if err := s.stop(); err != nil {
		return nil, err
	}
	open := map[string]float64{
		"lat_p99_us":   perRound(base, latUs(0.99)),
		"light_p50_us": perRound(light, openUs(0.50)),
		"light_p99_us": perRound(light, openUs(0.99)),
		"busy_p50_us":  perRound(busy, openUs(0.50)),
		"busy_p99_us":  perRound(busy, openUs(0.99)),
	}

	s, _, err = g.launchWarm(ctx, true)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if _, err := s.call("mark"); err != nil {
		return nil, err
	}
	ls = g.lanes(s.addr)
	defer closeLanes(ls)
	cs, lights, busys := g.rounds(ctx, ls, openRounds, traceClosedShare, traceOpenShare)
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	closed, tlight, tbusy := merge(cs), merge(lights), merge(busys)
	if name, err := writeSpans(g.env, map[string]*phase{"closed": closed, "light": tlight, "busy": tbusy}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", name)
	}
	m := g.layers(st, merge(base), closed, tlight, tbusy)
	for name, v := range open {
		m[name] = metric{v, "us"}
	}
	m["max_rate_rps"] = metric{maxRate, "op/s"}
	return g.result(m), nil
}

// layers assembles the per-layer metrics of a traced window.
func (g *generator) layers(st *serverStats, base, closed, light, busy *phase) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ops := float64(max(closed.ok()+light.ok()+busy.ok(), 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Generator: client spans over all three traced phases.
	var dial, ttfb, body []int64
	for _, p := range []*phase{closed, light, busy} {
		for _, s := range p.spans {
			if s.err {
				continue
			}
			if s.dialDone > 0 {
				dial = append(dial, s.dialDone-s.dialStart)
			}
			if s.firstByte > 0 {
				ttfb = append(ttfb, s.firstByte-s.written)
				body = append(body, s.end-s.firstByte)
			}
		}
	}
	put("client.dial_us.p50", "us", quantileUs(dial, 0.5))
	put("client.dial_us.p99", "us", quantileUs(dial, 0.99))
	put("client.ttfb_us.p50", "us", quantileUs(ttfb, 0.5))
	put("client.body_us.p50", "us", quantileUs(body, 0.5))
	put("gen.late_us.p99", "us", quantileUs(append(append([]int64(nil), light.late...), busy.late...), 0.99))
	put("gen.backlog_max", "count", float64(max(light.backlogMax, busy.backlogMax)))

	// netkit.
	put("netkit.accepted_per_op", "count", float64(st.Accepted)/ops)
	put("netkit.admitted_per_op", "count", float64(st.Admitted)/ops)
	put("netkit.shed", "count", float64(st.Shed))

	// Runtime: the request graph's flows ("Listen" feeds the web
	// server's Page graph, "Poll" the BitTorrent message loop).
	tr := st.Trace
	graph := "Listen"
	if g.w.name == "bt-leech" {
		graph = "Poll"
	}
	fl := tr.Flows[graph]
	put("runtime.flow_us.p50", "us", fl.P50)
	put("runtime.flow_us.p99", "us", fl.P99)
	put("runtime.flows.completed_per_op", "count", float64(st.FlowsCompleted)/ops)
	put("runtime.flows.errored_per_op", "count", float64(st.FlowsErrored)/ops)
	put("runtime.flows.dropped_per_op", "count", float64(st.Drops)/ops)
	put("runtime.unattributed_us.mean", "us", ratio(tr.FlowTime[graph]-tr.NodeTime[graph], float64(tr.FlowCount[graph])))
	for _, q := range queues {
		v := tr.Queues[q]
		put("runtime.queue_depth."+q+".mean", "count", v[0])
		put("runtime.queue_depth."+q+".max", "count", v[1])
	}
	put("runtime.steals_per_op", "count", float64(tr.Steals)/ops)

	// Server nodes: every workload reports every node; a node of the
	// other server reads 0 calls.
	for _, n := range webNodes {
		d := tr.Nodes[n]
		put("node."+n+".busy_us.mean", "us", d.Mean)
		put("node."+n+".busy_us.p99", "us", d.P99)
		put("node."+n+".calls_per_op", "count", float64(d.N)/ops)
	}
	for _, n := range btNodes {
		put("node."+n+".busy_us.mean", "us", tr.Nodes[n].Mean)
	}

	// lfu and fscript.
	put("lfu.hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	put("lfu.evictions", "count", float64(st.CacheEvictions))
	put("fscript.compiled_ratio", "ratio", ratio(float64(st.DynCompiled), float64(st.DynCompiled+st.DynInterpreted)))

	// bittorrent and torrent.
	var other uint64
	for k, v := range st.Msgs {
		if !slices.Contains(btMsgs, k) {
			other += v
		}
	}
	for _, k := range btMsgs {
		put("bittorrent.msgs."+k+"_per_piece", "count", float64(st.Msgs[k])/ops)
	}
	put("bittorrent.msgs.other_per_piece", "count", float64(other)/ops)
	poll := float64(tr.FlowCount["Poll"])
	put("bittorrent.empty_poll_ratio", "ratio", ratio(float64(tr.Errs["Poll"]), poll))
	put("torrent.hash_fail", "count", float64(g.hashFails.Load()))

	// Server process.
	put("proc.allocs_per_op", "count", float64(st.Allocs)/ops)
	put("proc.gc_cycles_per_s", "1/s", ratio(float64(st.GCCycles), st.Elapsed))
	put("proc.gc_pause_us.p99", "us", st.GCPauseP99us)
	put("proc.sched_latency_us.p99", "us", st.SchedLatP99us)

	// Tracing: traced against untraced closed loop, and the client's
	// time to first byte against the server's flow time.
	baseOps := float64(base.ok()) / base.elapsed.Seconds()
	tracedOps := float64(closed.ok()) / closed.elapsed.Seconds()
	baseP50 := quantileUs(base.latencies(), 0.5)
	put("trace.overhead_pct", "%", 100*ratio(baseOps-tracedOps, baseOps))
	put("trace.overhead_pct.lat_p50", "%", 100*ratio(quantileUs(closed.latencies(), 0.5)-baseP50, baseP50))
	put("trace.gap_us.p50", "us", quantileUs(ttfb, 0.5)-fl.P50)

	put("fail_ratio", "ratio", ratio(float64(g.failed), float64(g.attempted)))
	return m
}
