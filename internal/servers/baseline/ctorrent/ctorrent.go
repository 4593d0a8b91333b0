// Package ctorrent is the hand-written comparison BitTorrent seeder
// standing in for CTorrent (the C implementation the paper benchmarks
// against in §4.3). Each peer connection is serviced by a dedicated
// goroutine running a tight read-handle-respond loop over the shared
// piece store — the conventional design, with the paper's benchmark
// modifications (every peer unchoked, no unchoke limit).
package ctorrent

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/flux-lang/flux/internal/servers/baseline/lifecycle"
	"github.com/flux-lang/flux/internal/torrent"
)

// Config tunes the baseline seeder.
type Config struct {
	Addr    string
	Meta    *torrent.MetaInfo
	Content []byte
}

// Server is the baseline seeder.
type Server struct {
	cfg    Config
	ln     net.Listener
	store  *torrent.Store
	peerID [20]byte

	bytesOut atomic.Uint64
	served   atomic.Uint64

	lifecycle.Runner
}

// New opens the listener over a complete piece store.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Meta == nil || cfg.Content == nil {
		return nil, errors.New("ctorrent: Meta and Content are required")
	}
	store, err := torrent.NewSeeder(cfg.Meta, cfg.Content)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln, store: store}
	if _, err := rand.Read(s.peerID[:]); err != nil {
		ln.Close()
		return nil, err
	}
	copy(s.peerID[:8], "-CTLIKE-")
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// BytesServed totals piece payload bytes sent.
func (s *Server) BytesServed() uint64 { return s.bytesOut.Load() }

// BlocksServed counts piece messages sent.
func (s *Server) BlocksServed() uint64 { return s.served.Load() }

// Run accepts and serves peers until the context is cancelled.
func (s *Server) Run(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		s.ln.Close()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			wg.Wait()
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.servePeer(conn)
		}()
	}
}

func (s *Server) servePeer(conn net.Conn) {
	// Handshake.
	if err := s.writeHandshake(conn); err != nil {
		return
	}
	if err := s.readHandshake(conn); err != nil {
		return
	}
	// Bitfield.
	bf := s.store.Bitfield()
	if err := writeMessage(conn, 5, bf); err != nil {
		return
	}
	// Serve requests forever.
	for {
		id, payload, err := readMessage(conn)
		if err != nil {
			return
		}
		switch id {
		case 2: // interested -> unchoke (benchmark modification)
			if err := writeMessage(conn, 1, nil); err != nil {
				return
			}
		case 6: // request
			if len(payload) != 12 {
				return
			}
			index := binary.BigEndian.Uint32(payload[0:4])
			begin := binary.BigEndian.Uint32(payload[4:8])
			length := binary.BigEndian.Uint32(payload[8:12])
			if length > torrent.BlockSize {
				return
			}
			// blk is a read-only view of the store; it is only
			// copied into the response frame.
			blk, err := s.store.ReadBlock(int(index), int64(begin), int64(length))
			if err != nil {
				return
			}
			resp := make([]byte, 8+len(blk))
			binary.BigEndian.PutUint32(resp[0:4], index)
			binary.BigEndian.PutUint32(resp[4:8], begin)
			copy(resp[8:], blk)
			if err := writeMessage(conn, 7, resp); err != nil {
				return
			}
			s.bytesOut.Add(uint64(len(blk)))
			s.served.Add(1)
		default:
			// choke/unchoke/have/bitfield/cancel/keep-alive: ignored
			// by a pure seeder.
		}
	}
}

func (s *Server) writeHandshake(conn net.Conn) error {
	buf := make([]byte, 0, 68)
	buf = append(buf, 19)
	buf = append(buf, "BitTorrent protocol"...)
	buf = append(buf, make([]byte, 8)...)
	buf = append(buf, s.cfg.Meta.InfoHash[:]...)
	buf = append(buf, s.peerID[:]...)
	_, err := conn.Write(buf)
	return err
}

func (s *Server) readHandshake(conn net.Conn) error {
	buf := make([]byte, 68)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	if buf[0] != 19 || string(buf[1:20]) != "BitTorrent protocol" {
		return errors.New("ctorrent: bad handshake")
	}
	var got [20]byte
	copy(got[:], buf[28:48])
	if got != s.cfg.Meta.InfoHash {
		return errors.New("ctorrent: info hash mismatch")
	}
	return nil
}

func writeMessage(conn net.Conn, id byte, payload []byte) error {
	frame := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(1+len(payload)))
	frame[4] = id
	copy(frame[5:], payload)
	_, err := conn.Write(frame)
	return err
}

func readMessage(conn net.Conn) (id int, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(conn, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(lenBuf[:])
	if length == 0 {
		return -1, nil, nil
	}
	if length > torrent.BlockSize+1024 {
		return 0, nil, fmt.Errorf("ctorrent: oversized frame %d", length)
	}
	body := make([]byte, length)
	if _, err = io.ReadFull(conn, body); err != nil {
		return 0, nil, err
	}
	return int(body[0]), body[1:], nil
}
