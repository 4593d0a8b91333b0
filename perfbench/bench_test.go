package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary double as the server process: the
// generator launches its own executable with "serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, res *result, names []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", n, m.Value)
		}
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(names))
	}
}

// A short untraced and traced run of every workload against the real
// servers: every named metric is present and finite, nothing failed,
// dynamic pages took the compiled path and admission shed nothing.
func TestWorkloadsShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			g := &generator{w: w, seed: 1, seconds: 2, env: envStamp(w.name, 1, 0)}
			res, err := g.untraced(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, n := range endToEnd {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}

			g = &generator{w: w, seed: 1, seconds: 2, env: envStamp(w.name, 1, 1)}
			res, err = g.traced(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			want := map[string]float64{"fail_ratio": 0, "netkit.shed": 0, "torrent.hash_fail": 0}
			if w.name == "web-mixed-ka" {
				want["fscript.compiled_ratio"] = 1
			}
			for n, v := range want {
				if got := res.Metrics[n].Value; got != v {
					t.Errorf("%s = %v, want %v", n, got, v)
				}
			}
		})
	}
}
