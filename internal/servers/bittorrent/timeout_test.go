package bittorrent

import (
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/metrics"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/runtime"
)

func waitShed(t *testing.T, fo *metrics.FlowObserver, key string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if fo.ShedCount(key) > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q shed counted within %v (sheds=%d)", key, d, fo.Sheds())
}

// TestHandshakeTimeoutShed connects a peer that writes half a handshake
// and stalls: the handshake deadline must pop, the connection must be
// dropped, and the shed must be counted on the plane's observer.
func TestHandshakeTimeoutShed(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	fo := metrics.NewFlowObserver()
	_, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 4,
		HandshakeTimeout: 200 * time.Millisecond,
		ServeConfig: netkit.ServeConfig{
			Observer: fo,
		},
	})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// 19 + "BitTorrent protocol" + nothing else: a half-written handshake.
	if _, err := nc.Write([]byte("\x13BitTorrent proto")); err != nil {
		t.Fatal(err)
	}

	waitShed(t, fo, "bittorrent/handshake-timeout", 5*time.Second)
}

// TestIdlePeerShed registers a peer that completes the handshake and
// then goes silent — a dead keep-alive peer. The idle deadline must reap
// it and count the shed.
func TestIdlePeerShed(t *testing.T) {
	meta, data := testTorrent(t, 128*1024)
	fo := metrics.NewFlowObserver()
	s, addr, stop := startSeeder(t, Config{
		Meta: meta, Content: data,
		Engine: runtime.ThreadPool, PoolSize: 4,
		IdleTimeout: 300 * time.Millisecond,
		ServeConfig: netkit.ServeConfig{
			Observer: fo,
		},
	})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var peerID [20]byte
	copy(peerID[:], "-TEST01-idlepeer0000")
	if err := WriteHandshake(nc, meta.InfoHash, peerID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadHandshake(nc); err != nil {
		t.Fatal(err)
	}
	// Fully registered (the server sends its bitfield), then silence.
	if _, err := readMessageDeadline(nc, 5*time.Second); err != nil {
		t.Fatalf("bitfield: %v", err)
	}

	waitShed(t, fo, "bittorrent/idle", 5*time.Second)
	if got := s.MsgCounts()["bitfield"]; got != 0 {
		t.Errorf("server counted %d bitfield messages from a silent peer", got)
	}
}
