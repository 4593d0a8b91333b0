// Command perfbench is the repository's benchmark. It starts the Flux
// servers in a process of their own through their public constructors,
// drives them over loopback with at most two connections, verifies
// every response, and prints one JSON result line.
//
//	perfbench --workload web-mixed-ka --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced measurement and prints the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/debug"
	"syscall"
)

// buildDir holds everything the benchmark writes (binary, materialized
// corpus, span traces), relative to the checkout root.
const buildDir = ".bench_build"

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	wl := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*wl)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	// The generator is one process on at most two threads. Its heap is
	// the corpus and the spans of one run, so its collector is off (up to
	// a memory limit): a collection would pause the lanes mid-operation
	// and charge the pause to the server.
	goruntime.GOMAXPROCS(min(2, goruntime.NumCPU()))
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := envStamp(*wl, *seed, *trace)
	out, _ := json.Marshal(env)
	fmt.Printf("env %s\n", out)

	g := &generator{w: w, seed: *seed, seconds: float64(*seconds), env: env}
	var res *result
	var err error
	if *trace == 1 {
		res, err = g.traced(ctx)
	} else {
		res, err = g.untraced(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	trace := fs.Int("trace", 0, "1: attach the trace observer")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench serve: unknown workload %q\n", *wl)
		return 2
	}
	if err := serve(w, *seed, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve: %v\n", err)
		return 1
	}
	return 0
}

// envStamp records where a result was measured.
func envStamp(wl string, seed int64, trace int) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   wl,
		"seed":       seed,
		"trace":      trace,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"commit":     commit,
	}
}
