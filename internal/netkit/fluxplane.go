package netkit

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// FluxPlane is the serving scaffold of every plane-fronted Flux server
// (web, image, BitTorrent): the one place that turns a compiled program
// and its bindings into a running server. It applies the admission
// defaults, folds telemetry into the observer chain, builds the
// queue-depth gate and the SLO controller, constructs the runtime,
// opens the connection plane, registers the plane's counters with
// telemetry, and owns the lifecycle order. Servers embed it for their
// Start/Shutdown/Wait/Run and accessor methods, so none of that is
// written out per server.
//
// Admission injects each accepted connection as a flow on the
// program's Listen source through a pre-resolved SourceHandle — the
// runtime's external-admission fast path — and keep-alive
// re-registration (Reinject) and outbound dials (AdmitDialed) take the
// same path.
type FluxPlane struct {
	rt    *runtime.Server
	src   *runtime.SourceHandle
	plane *Plane
	gate  *Gate
	ctrl  *Controller

	startOnce sync.Once
	started   chan struct{}
}

// ServeConfig holds the serving knobs every plane-fronted server
// shares; each server's Config embeds it.
type ServeConfig struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Observer, when non-nil, joins the runtime's observer plane: flow
	// terminals, queue depths, and the connection plane's shed events.
	// A path profiler joins as runtime.ObserveProfiler(p). With no
	// Observer, Telemetry or admission bound the runtime runs with a
	// nil observer — the nil-cost hot path.
	Observer runtime.Observer
	// Telemetry, when non-nil, rides the observer plane alongside
	// Observer (composed, never replacing it) and receives the
	// connection plane's admission counters under the server's name.
	Telemetry *telemetry.Telemetry
	// AdmitWatermark, when > 0, bounds admission: once the engine's
	// sampled queue depths sum past it, fresh connections are shed
	// (HTTP servers answer 503) and keep-alive responses announce
	// Connection: close until the backlog drains. 0 admits unboundedly.
	AdmitWatermark int
	// MaxConns, when > 0, caps live connections; accepts beyond it are
	// shed. The watermark reacts to backlog with sampling lag, so a
	// reconnect burst between samples can overshoot it; the cap bounds
	// that burst. Outbound dials bypass it (the server chose them).
	MaxConns int
	// QueueSample overrides the queue-depth sampling period (default
	// 5ms with an AdmitWatermark — admission control needs a fresh
	// signal — else the runtime's 100ms).
	QueueSample time.Duration
	// TargetP95, when > 0, puts admission under the SLO controller:
	// served latency (completed flows' elapsed time) is measured on the
	// observer plane, and every control interval the watermark — and
	// the connection cap, 2× it — takes one AIMD step to hold the
	// window's p95 at the target. AdmitWatermark becomes the starting
	// point (default 64).
	TargetP95 time.Duration
	// WriteTimeout, when > 0, bounds every write through a plane Conn:
	// a dead or zero-window client stalls a response for at most this
	// long, then the write fails, the connection is torn down, and a
	// write-timeout shed is counted.
	WriteTimeout time.Duration
	// ListenShards, when > 1, opens that many SO_REUSEPORT accept
	// shards (one accept loop each), spreading accepted connections
	// across cores at the socket layer. Platforms without SO_REUSEPORT
	// fall back to a single listener and serve identically.
	ListenShards int
}

// admitSource is the source a plane-fronted program roots its
// connection flows at. The plane owns accept, so the source's own
// function only retires (runtime.ErrStop).
const admitSource = "Listen"

// Controller tuning shared by every plane-fronted server. Tighter than
// the ControllerConfig defaults: a 50ms period detects an overshoot one
// window after it starts, and probing up by 4 admits a burst small
// enough that its queueing delay stays inside the SLO band instead of
// spiking served p95 (the AIMD limit cycle's amplitude is the up-step's
// queueing cost).
const (
	serveCtrlInterval = 50 * time.Millisecond
	serveCtrlStep     = 4
)

// NewFluxPlane builds the plane-fronted server named name from a
// compiled program, whose connection flows start at its "Listen"
// source, and the program's bindings. The gate and controller join the
// observer chain, the runtime is built with them plus opts (the engine
// selection, and WithKeepAlive for servers whose only long-lived source
// is the plane), and the plane opens its listener. shed is written to
// each shed connection before it closes (nil closes silently). The
// server is inert until Start.
func NewFluxPlane(name string, prog *core.Program, b *runtime.Bindings, cfg ServeConfig, shed []byte, opts ...runtime.Option) (*FluxPlane, error) {
	if cfg.TargetP95 > 0 && cfg.AdmitWatermark <= 0 {
		cfg.AdmitWatermark = 64 // the controller's starting point, not a tuning decision
	}
	if cfg.QueueSample <= 0 && cfg.AdmitWatermark > 0 {
		cfg.QueueSample = 5 * time.Millisecond
	}
	if cfg.Telemetry != nil {
		cfg.Observer = runtime.MultiObserver(cfg.Observer, cfg.Telemetry)
	}
	fp := &FluxPlane{started: make(chan struct{})}
	obs := cfg.Observer
	if cfg.AdmitWatermark > 0 {
		// Joining the observer chain is what turns queue sampling on.
		fp.gate = NewGate(cfg.AdmitWatermark)
		obs = runtime.MultiObserver(obs, fp.gate)
	}

	var err error
	fp.plane, err = Listen(Config{
		Addr:         cfg.Addr,
		Admit:        fp.admit,
		Gate:         fp.gate,
		MaxConns:     cfg.MaxConns,
		ShedResponse: shed,
		WriteTimeout: cfg.WriteTimeout,
		ListenShards: cfg.ListenShards,
		Observer:     cfg.Observer,
		Name:         name,
	})
	if err != nil {
		return nil, err
	}
	if err := fp.build(name, prog, b, cfg, obs, opts); err != nil {
		_ = fp.plane.Shutdown(context.Background()) // release the listener
		return nil, err
	}
	if cfg.Telemetry != nil {
		pl := fp.plane
		cfg.Telemetry.RegisterConns(name, func() telemetry.ConnStats {
			st := pl.Stats()
			return telemetry.ConnStats{Accepted: st.Accepted, Admitted: st.Admitted, Shed: st.Shed, Live: st.Live}
		})
	}
	return fp, nil
}

// build adds the controller to the observer chain (FlowDone is its
// input signal), constructs the runtime, and resolves the admission
// source.
func (fp *FluxPlane) build(name string, prog *core.Program, b *runtime.Bindings, cfg ServeConfig, obs runtime.Observer, opts []runtime.Option) error {
	if cfg.TargetP95 > 0 {
		// The trajectory streams are labelled with the engine the
		// options select.
		var rc runtime.Config
		for _, o := range opts {
			o(&rc)
		}
		ctrl, err := NewController(ControllerConfig{
			Target:   cfg.TargetP95,
			Interval: serveCtrlInterval,
			Step:     serveCtrlStep,
			Kind:     rc.Kind,
			Sink:     cfg.Observer,
		}, fp.gate, fp.plane)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fp.ctrl = ctrl
		obs = runtime.MultiObserver(obs, ctrl)
	}
	rt, err := runtime.New(prog, b, append(opts,
		runtime.WithObserver(obs),
		runtime.WithQueueSampleInterval(cfg.QueueSample))...)
	if err != nil {
		return err
	}
	fp.rt = rt
	fp.src, err = rt.Source(admitSource)
	return err
}

// admit injects a fresh connection into the graph — the only way flows
// enter a plane-fronted server.
func (fp *FluxPlane) admit(c *Conn) error {
	return fp.src.Inject(runtime.Record{c})
}

// AdmitDialed adopts an outbound connection the server dialed itself
// onto the plane and injects it through the same source fresh accepts
// take — so a peer-to-peer server's dialed and accepted connections
// share one admission path, one tracked-conn sweep, and one shed
// ledger.
func (fp *FluxPlane) AdmitDialed(nc net.Conn) error {
	return fp.plane.AdoptAndAdmit(nc)
}

// Reinject re-admits a live connection: keep-alive re-registration
// through the same Inject path fresh accepts take. A refusal (the
// server is draining) drops the connection through the plane, which
// counts and reports it.
func (fp *FluxPlane) Reinject(c *Conn) {
	if err := fp.src.Inject(runtime.Record{c}); err != nil {
		fp.plane.DropConn(c, "closed")
	}
}

// Addr returns the bound listen address.
func (fp *FluxPlane) Addr() string { return fp.plane.Addr() }

// Program exposes the compiled Flux program (for DOT output,
// simulation, and profiling reports).
func (fp *FluxPlane) Program() *core.Program { return fp.rt.Program() }

// Stats exposes the runtime's flow counters.
func (fp *FluxPlane) Stats() *runtime.Stats { return fp.rt.Stats() }

// Gate returns the admission gate (nil without an admission bound).
func (fp *FluxPlane) Gate() *Gate { return fp.gate }

// Controller returns the SLO controller (nil without a TargetP95).
func (fp *FluxPlane) Controller() *Controller { return fp.ctrl }

// Shards reports how many accept shards the plane opened.
func (fp *FluxPlane) Shards() int { return fp.plane.Shards() }

// Plane returns the underlying connection plane.
func (fp *FluxPlane) Plane() *Plane { return fp.plane }

// CountShed records a shed whose close is owned elsewhere — the path
// for server-side read timeouts (slow-loris heads, dead keep-alive
// peers), where the flow's own error terminal closes the connection
// and the plane must only account for it.
func (fp *FluxPlane) CountShed(reason string) { fp.plane.CountShed(reason) }

// Overloaded reports the gate's overload state (false without a gate).
func (fp *FluxPlane) Overloaded() bool { return fp.plane.Overloaded() }

// PlaneStats returns the plane's admission counters.
func (fp *FluxPlane) PlaneStats() StatsSnapshot { return fp.plane.Stats() }

// Started is closed once Start has brought admission up, for callers
// (outbound dials) that may race Start.
func (fp *FluxPlane) Started() <-chan struct{} { return fp.started }

// Start launches the runtime, then the accept loop — admission must be
// live before the first connection is injected — then the control
// loop. The server serves until ctx is cancelled or Shutdown is called.
func (fp *FluxPlane) Start(ctx context.Context) error {
	if err := fp.rt.Start(ctx); err != nil {
		return err
	}
	if err := fp.plane.Start(ctx); err != nil {
		return err
	}
	if fp.ctrl != nil {
		fp.ctrl.Start(ctx)
	}
	fp.startOnce.Do(func() { close(fp.started) })
	return nil
}

// Shutdown gracefully stops the server. The control loop stops first —
// a controller stepping the watermark while the plane drains would
// fight the shutdown. Then the plane stops accepting and interrupts
// every live connection, so flows blocked reading idle clients reach
// their error terminals; then the runtime stops admitting and drains
// in-flight flows until their terminals or ctx expires.
// Re-registrations racing the shutdown are refused by Inject and their
// connections dropped and counted.
func (fp *FluxPlane) Shutdown(ctx context.Context) error {
	if fp.ctrl != nil {
		fp.ctrl.Stop()
	}
	err := fp.plane.Shutdown(ctx)
	if err2 := fp.rt.Shutdown(ctx); err == nil {
		err = err2
	}
	return err
}

// Wait blocks until the runtime's run ends and the accept loop has
// retired, returning the run's error.
func (fp *FluxPlane) Wait() error {
	err := fp.rt.Wait()
	_ = fp.plane.Wait()
	return err
}

// Run serves until ctx is cancelled: Start followed by Wait.
func (fp *FluxPlane) Run(ctx context.Context) error {
	if err := fp.Start(ctx); err != nil {
		return err
	}
	return fp.Wait()
}
