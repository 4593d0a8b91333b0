package main

import "time"

// workload fixes one traffic shape and its open-loop settings. The
// light and busy rates and the p99 limit were set once from the seed
// code's own runs (light about 10%, busy about half of its max_rate_rps
// on a quiet machine) and are never re-derived per run: a faster server
// shows up as lower latency at the same rates and a higher max_rate_rps.
type workload struct {
	name        string
	light, busy float64       // open-loop arrival rates, operations/s
	limit       time.Duration // open-loop p99 limit, timed from due time
}

var workloads = []workload{
	{name: "web-mixed-ka", light: 500, busy: 2500, limit: 50 * time.Millisecond},
	{name: "web-static-open", light: 250, busy: 1500, limit: 50 * time.Millisecond},
	{name: "bt-leech", light: 40, busy: 240, limit: 150 * time.Millisecond},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// An untraced run of s seconds is closedRounds rounds of the closed
// loop; setup_s is the interquartile mean of setupRuns server launches.
const (
	closedRounds = 10
	setupRuns    = 9
	opTimeout    = 5 * time.Second
)

// A traced run of s seconds starts two servers. The first, untraced,
// measures the open loop — openRounds rounds of a closed-loop segment
// (the tracing-overhead baseline) and a light and a busy open-loop
// segment, then the rate ladder, climbing by ladderGrowth from busy until
// a step is not sustained and bisecting between the last sustained rate
// and that one, each step ladderStep of the run. The second, traced,
// repeats closed, light and busy rounds for the per-layer figures.
const (
	openRounds       = 5
	openClosedShare  = 0.20
	openShare        = 0.15 // each of light and busy
	ladderStep       = 0.04
	climbSteps       = 10
	bisectSteps      = 4
	ladderGrowth     = 1.25
	traceClosedShare = 0.25
	traceOpenShare   = 0.10 // each of light and busy
)
