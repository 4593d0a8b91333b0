package netkit_test

// One table over every plane-fronted server: the serving scaffold
// (netkit.FluxPlane) must wire telemetry, the SLO controller and accept
// sharding identically for each of them, since each server now only
// hands it a program, bindings and a ServeConfig.

import (
	"context"
	"io"
	"net/http"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/bittorrent"
	"github.com/flux-lang/flux/internal/servers/imageserver"
	"github.com/flux-lang/flux/internal/servers/webserver"
	"github.com/flux-lang/flux/internal/telemetry"
	"github.com/flux-lang/flux/internal/torrent"
)

// scaffolded is the surface every server gets from the scaffold.
type scaffolded interface {
	Start(context.Context) error
	Shutdown(context.Context) error
	Gate() *netkit.Gate
	Controller() *netkit.Controller
	Shards() int
}

// ctrlSteps counts the controller's trajectory samples.
type ctrlSteps struct{ n atomic.Int64 }

func (c *ctrlSteps) FlowDone(*core.FlatGraph, uint64, runtime.FlowOutcome, time.Duration) {}
func (c *ctrlSteps) NodeDone(*core.FlatGraph, *core.FlatNode, time.Duration)              {}
func (c *ctrlSteps) QueueDepth(_ runtime.EngineKind, queue string, _ int) {
	if strings.HasPrefix(queue, runtime.CtrlStreamPrefix) {
		c.n.Add(1)
	}
}

func TestServingScaffoldAcrossServers(t *testing.T) {
	data := make([]byte, 64<<10)
	meta, err := torrent.New("scaffold.bin", "", data, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name string
		new  func(netkit.ServeConfig) (scaffolded, error)
	}{
		{"webserver", func(sc netkit.ServeConfig) (scaffolded, error) {
			return webserver.New(webserver.Config{Engine: runtime.ThreadPool, PoolSize: 4, ServeConfig: sc})
		}},
		{"imageserver", func(sc netkit.ServeConfig) (scaffolded, error) {
			return imageserver.New(imageserver.Config{Engine: runtime.ThreadPool, PoolSize: 4, ServeConfig: sc})
		}},
		{"bittorrent", func(sc netkit.ServeConfig) (scaffolded, error) {
			return bittorrent.New(bittorrent.Config{Meta: meta, Content: data, Engine: runtime.ThreadPool, PoolSize: 4, ServeConfig: sc})
		}},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			steps := &ctrlSteps{}
			srv, err := tc.new(netkit.ServeConfig{
				Observer:     steps,
				Telemetry:    tel,
				TargetP95:    30 * time.Millisecond,
				ListenShards: 2,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := srv.Start(context.Background()); err != nil {
				t.Fatalf("Start: %v", err)
			}

			if got := srv.Shards(); goruntime.GOOS == "linux" && got != 2 {
				t.Errorf("Shards() = %d, want 2 on linux", got)
			}
			if srv.Controller() == nil {
				t.Error("no controller with TargetP95 set")
			}
			if g := srv.Gate(); g == nil || g.Watermark() != 64 {
				t.Errorf("gate = %v, want one starting at watermark 64", g)
			}

			ops, err := telemetry.Serve("127.0.0.1:0", tel)
			if err != nil {
				t.Fatal(err)
			}
			defer ops.Close()
			resp, err := http.Get("http://" + ops.Addr() + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := `flux_plane_connections_total{plane="` + tc.name + `",state="accepted"}`
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics lacks %s", want)
			}

			// The control loop is running: its steps reach the observer.
			deadline := time.Now().Add(5 * time.Second)
			for steps.n.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if steps.n.Load() == 0 {
				t.Fatal("no ctrl/* step observed")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			// Shutdown stops the controller first: no step lands after it
			// returns, however many control intervals pass.
			after := steps.n.Load()
			time.Sleep(200 * time.Millisecond)
			if got := steps.n.Load(); got != after {
				t.Errorf("%d ctrl/* steps landed after Shutdown returned", got-after)
			}
		})
	}
}
