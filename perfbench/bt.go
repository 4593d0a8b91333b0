package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/torrent"
)

// The bt-leech torrent: 8 MB of seeded random bytes in 256 KB pieces,
// fetched in 16 KB blocks with 8 requests in flight per connection.
const (
	btSize      = 8 << 20
	btPieceLen  = 256 << 10
	btBlock     = torrent.BlockSize
	btPipeline  = 8
	btFrameMax  = btBlock + 13
	btProtoName = "BitTorrent protocol"
)

// BitTorrent wire message IDs (BEP 3) the leecher speaks.
const (
	msgChoke      = 0
	msgUnchoke    = 1
	msgInterested = 2
	msgRequest    = 6
	msgPiece      = 7
)

// btContent is the torrent both processes derive from the seed: the
// server seeds it, the benchmark verifies every piece against its hash.
func btContent(seed int64) (*torrent.MetaInfo, []byte, error) {
	data := make([]byte, btSize)
	rand.New(rand.NewSource(seed)).Read(data)
	meta, err := torrent.New("bench.bin", "", data, btPieceLen)
	return meta, data, err
}

// btStream is the leechers' piece order: whole re-downloads of the
// torrent, each in its own seeded random order. Operation i fetches
// order[i % len(order)].
func btStream(meta *torrent.MetaInfo, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x6274))
	var order []int
	for pass := 0; pass < 64; pass++ {
		order = append(order, rng.Perm(meta.NumPieces())...)
	}
	return order
}

// btLane is one benchmark-owned leecher with one connection to the
// seeder. An operation downloads one piece — its 16 KB blocks requested
// with up to btPipeline outstanding — and SHA-1-verifies it.
type btLane struct {
	addr    string
	meta    *torrent.MetaInfo
	order   []int
	timeout time.Duration
	// hashFails counts pieces whose SHA-1 did not match, across lanes.
	hashFails *atomic.Int64

	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	piece []byte
	frame []byte
}

func newBTLane(addr string, meta *torrent.MetaInfo, order []int, timeout time.Duration, hashFails *atomic.Int64) *btLane {
	return &btLane{addr: addr, meta: meta, order: order, timeout: timeout, hashFails: hashFails,
		piece: make([]byte, meta.PieceLength), frame: make([]byte, btFrameMax)}
}

// connect dials the seeder, exchanges handshakes, declares interest and
// waits to be unchoked.
func (l *btLane) connect(sp *span, clk clock) error {
	sp.dialStart = clk.now()
	c, err := net.DialTimeout("tcp", l.addr, l.timeout)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	sp.dialDone = clk.now()
	l.conn, l.br, l.bw = c, bufio.NewReaderSize(c, 256<<10), bufio.NewWriterSize(c, 4<<10)
	_ = c.SetDeadline(time.Now().Add(l.timeout))

	var hs [68]byte
	hs[0] = byte(len(btProtoName))
	copy(hs[1:], btProtoName)
	copy(hs[28:], l.meta.InfoHash[:])
	copy(hs[48:], "-PB0001-perfbench000")
	if _, err := c.Write(hs[:]); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	var got [68]byte
	if _, err := io.ReadFull(l.br, got[:]); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if got[0] != byte(len(btProtoName)) || string(got[1:20]) != btProtoName || [20]byte(got[28:48]) != l.meta.InfoHash {
		return fmt.Errorf("handshake: bad reply")
	}
	l.bw.Write([]byte{0, 0, 0, 1, msgInterested})
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("interested: %w", err)
	}
	for {
		id, _, err := l.readFrame()
		if err != nil {
			return fmt.Errorf("await unchoke: %w", err)
		}
		if id == msgUnchoke {
			return nil
		}
	}
}

// readFrame reads one message; id -1 is a keep-alive. The payload
// aliases the lane's frame buffer.
func (l *btLane) readFrame() (int, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(l.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return -1, nil, nil
	}
	if n > uint32(len(l.frame)) {
		return 0, nil, fmt.Errorf("frame of %d bytes", n)
	}
	if _, err := io.ReadFull(l.br, l.frame[:n]); err != nil {
		return 0, nil, err
	}
	return int(l.frame[0]), l.frame[1:n], nil
}

func (l *btLane) request(index, begin, length int) {
	var m [17]byte
	binary.BigEndian.PutUint32(m[0:], 13)
	m[4] = msgRequest
	binary.BigEndian.PutUint32(m[5:], uint32(index))
	binary.BigEndian.PutUint32(m[9:], uint32(begin))
	binary.BigEndian.PutUint32(m[13:], uint32(length))
	l.bw.Write(m[:])
}

func (l *btLane) do(i int64, sp *span, clk clock) (int64, error) {
	n, err := l.fetch(l.order[i%int64(len(l.order))], sp, clk)
	if err != nil {
		l.close()
	}
	return n, err
}

func (l *btLane) fetch(index int, sp *span, clk clock) (int64, error) {
	if l.conn == nil {
		if err := l.connect(sp, clk); err != nil {
			return 0, err
		}
	}
	_ = l.conn.SetDeadline(time.Now().Add(l.timeout))
	size := int(l.meta.PieceSize(index))
	blocks := (size + btBlock - 1) / btBlock
	sent, got := 0, 0
	fill := func() error {
		for sent < blocks && sent-got < btPipeline {
			length := min(btBlock, size-sent*btBlock)
			l.request(index, sent*btBlock, length)
			sent++
		}
		return l.bw.Flush()
	}
	if err := fill(); err != nil {
		return 0, fmt.Errorf("request piece %d: %w", index, err)
	}
	sp.written = clk.now()
	have := make([]bool, blocks)
	for got < blocks {
		id, p, err := l.readFrame()
		if err != nil {
			return 0, fmt.Errorf("piece %d: %w", index, err)
		}
		switch id {
		case msgPiece:
		case msgChoke:
			return 0, fmt.Errorf("piece %d: choked mid-download", index)
		default:
			continue // keep-alives, haves, bitfields: nothing to do
		}
		if len(p) < 8 {
			return 0, fmt.Errorf("piece %d: short piece message", index)
		}
		idx, begin := int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:]))
		blk := p[8:]
		b := begin / btBlock
		if idx != index || begin%btBlock != 0 || b >= blocks || have[b] || len(blk) != min(btBlock, size-begin) {
			return 0, fmt.Errorf("piece %d: unexpected block (%d, %d, %d bytes)", index, idx, begin, len(blk))
		}
		if got == 0 {
			sp.firstByte = clk.now()
		}
		copy(l.piece[begin:], blk)
		have[b] = true
		got++
		if err := fill(); err != nil {
			return 0, fmt.Errorf("request piece %d: %w", index, err)
		}
	}
	if !l.meta.VerifyPiece(index, l.piece[:size]) {
		l.hashFails.Add(1)
		return 0, fmt.Errorf("piece %d: SHA-1 mismatch", index)
	}
	return int64(size), nil
}

func (l *btLane) close() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}
