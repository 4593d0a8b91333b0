package bittorrent

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/torrent"
)

// tcpPair returns both ends of a loopback TCP connection, so piece
// sends take the real writev path (net.Buffers on a *net.TCPConn).
func tcpPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// pieceSeeder returns a complete store over deterministic content of
// the given number of 256 KB pieces.
func pieceSeeder(tb testing.TB, pieces int) *torrent.Store {
	tb.Helper()
	data := make([]byte, pieces*256<<10)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	meta, err := torrent.New("piecesend", "", data, 256<<10)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := torrent.NewSeeder(meta, data)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestPieceSendMatchesWriteMessage: the zero-copy writev framing of a
// piece is byte-identical to WriteMessage's, and other kinds sent on
// the same peer interleave with it cleanly.
func TestPieceSendMatchesWriteMessage(t *testing.T) {
	st := pieceSeeder(t, 2)
	nc, rc := tcpPair(t)
	p := &Peer{nc: nc, writeTimeout: 5 * time.Second}

	var want bytes.Buffer
	var sent []*Message
	for piece := 0; piece < 2; piece++ {
		for b := 0; b < st.NumBlocks(piece); b++ {
			begin, length := st.BlockSpec(piece, b)
			blk, err := st.ReadBlock(piece, begin, length)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, &Message{ID: MsgPiece, Index: uint32(piece), Begin: uint32(begin), Payload: blk})
			if b%4 == 0 {
				sent = append(sent, &Message{ID: MsgHave, Index: uint32(b)}, &Message{ID: -1})
			}
		}
	}
	// A short final block, as a torrent's last piece may have.
	blk, err := st.ReadBlock(1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sent = append(sent, &Message{ID: MsgPiece, Index: 1, Begin: 0, Payload: blk})
	for _, m := range sent {
		if err := WriteMessage(&want, m); err != nil {
			t.Fatal(err)
		}
	}

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(io.LimitReader(rc, int64(want.Len())))
		got <- b
	}()
	for _, m := range sent {
		if err := p.send(m); err != nil {
			t.Fatalf("send %s: %v", m.Kind(), err)
		}
	}
	if b := <-got; !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("writev framing differs from WriteMessage (%d vs %d bytes)", len(b), want.Len())
	}
	if n := p.bytesOut.Load(); n != uint64(2*256<<10+1000) {
		t.Errorf("bytesOut = %d, want the piece payload total", n)
	}
}

// TestPieceSendConcurrentFramesIntact: flows on several goroutines send
// to one peer at once (piece responses beside haves and keep-alives);
// the shared writev header and vector under writeMu must keep every
// frame whole.
func TestPieceSendConcurrentFramesIntact(t *testing.T) {
	st := pieceSeeder(t, 1)
	nc, rc := tcpPair(t)
	p := &Peer{nc: nc, writeTimeout: 5 * time.Second}
	const senders, perSender = 4, 64
	got := make(chan map[uint32]int, 1)
	go func() {
		pieces := map[uint32]int{}
		for n := 0; n < senders*perSender*2; n++ {
			m, err := ReadMessage(rc)
			if err != nil {
				t.Errorf("frame %d: %v", n, err)
				break
			}
			if m.ID == MsgPiece {
				want, _ := st.ReadBlock(0, int64(m.Begin), torrent.BlockSize)
				if !bytes.Equal(m.Payload, want) {
					t.Errorf("piece at %d: payload corrupted", m.Begin)
				}
				pieces[m.Begin]++
			}
		}
		got <- pieces
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				begin := int64((g*perSender+i)%16) * torrent.BlockSize
				blk, _ := st.ReadBlock(0, begin, torrent.BlockSize)
				if err := p.send(&Message{ID: MsgPiece, Begin: uint32(begin), Payload: blk}); err != nil {
					t.Error(err)
					return
				}
				other := &Message{ID: -1}
				if i%2 == 0 {
					other = &Message{ID: MsgHave, Index: uint32(i)}
				}
				if err := p.send(other); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		nc.Close() // unblock the reader short of its frame count
	}
	total := 0
	for _, n := range <-got {
		total += n
	}
	if total != senders*perSender {
		t.Errorf("received %d pieces, want %d", total, senders*perSender)
	}
}

// TestReadBlockIsCappedView: a served block is a view of the store —
// no copy — whose capacity ends at the block, so an append by a careless
// caller cannot overwrite the next block.
func TestReadBlockIsCappedView(t *testing.T) {
	st := pieceSeeder(t, 1)
	a, err := st.ReadBlock(0, 0, torrent.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.ReadBlock(0, 0, torrent.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("ReadBlock copied the block; want a view of the store")
	}
	if cap(a) != torrent.BlockSize {
		t.Errorf("cap = %d, want %d (capacity-capped view)", cap(a), torrent.BlockSize)
	}
	next, _ := st.ReadBlock(0, torrent.BlockSize, torrent.BlockSize)
	before := next[0]
	_ = append(a, 0xFF)
	if next[0] != before {
		t.Error("append through a served block overwrote the next block")
	}
}

// drain reads a connection to EOF with a fixed buffer, allocating
// nothing per read.
func drain(c net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// TestPieceSendAllocFree: serving a block — the store read and the
// writev send — allocates nothing.
func TestPieceSendAllocFree(t *testing.T) {
	st := pieceSeeder(t, 1)
	nc, rc := tcpPair(t)
	go drain(rc)
	p := &Peer{nc: nc, writeTimeout: 5 * time.Second}
	allocs := testing.AllocsPerRun(200, func() {
		blk, err := st.ReadBlock(0, torrent.BlockSize, torrent.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.send(&Message{ID: MsgPiece, Index: 0, Begin: torrent.BlockSize, Payload: blk}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("piece send allocates %.1f times per block, want 0", allocs)
	}
}

// BenchmarkPieceSend is the seeder's per-block serving path (the
// Request node): a store read plus a zero-copy writev of one 16 KB block
// over loopback TCP. A piece is 16 such operations.
func BenchmarkPieceSend(b *testing.B) {
	st := pieceSeeder(b, 1)
	nc, rc := tcpPair(b)
	go drain(rc)
	p := &Peer{nc: nc, writeTimeout: 30 * time.Second}
	b.SetBytes(torrent.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		begin := int64(i%16) * torrent.BlockSize
		blk, err := st.ReadBlock(0, begin, torrent.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.send(&Message{ID: MsgPiece, Index: 0, Begin: uint32(begin), Payload: blk}); err != nil {
			b.Fatal(err)
		}
	}
}
