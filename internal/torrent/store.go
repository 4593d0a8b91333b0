package torrent

import (
	"errors"
	"fmt"
	"sync"
)

// Store holds a torrent's content with block-granular writes and SHA-1
// verification on piece completion. A seeder's store starts complete; a
// leecher's fills as pieces arrive.
type Store struct {
	meta *MetaInfo

	mu   sync.RWMutex
	data []byte
	have Bitfield
	// pending tracks received blocks of incomplete pieces.
	pending map[int]*pieceProgress
}

type pieceProgress struct {
	blocks   []bool
	received int
}

// NewSeeder returns a complete store over the content.
func NewSeeder(meta *MetaInfo, data []byte) (*Store, error) {
	if int64(len(data)) != meta.Length {
		return nil, fmt.Errorf("torrent: content is %d bytes, metainfo says %d", len(data), meta.Length)
	}
	s := &Store{meta: meta, data: data, have: NewBitfield(meta.NumPieces()), pending: map[int]*pieceProgress{}}
	for i := 0; i < meta.NumPieces(); i++ {
		s.have.Set(i)
	}
	return s, nil
}

// NewLeecher returns an empty store to be filled by WriteBlock.
func NewLeecher(meta *MetaInfo) *Store {
	return &Store{
		meta:    meta,
		data:    make([]byte, meta.Length),
		have:    NewBitfield(meta.NumPieces()),
		pending: map[int]*pieceProgress{},
	}
}

// Meta returns the store's metainfo.
func (s *Store) Meta() *MetaInfo { return s.meta }

// Bitfield returns a copy of the possession set.
func (s *Store) Bitfield() Bitfield {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Clone()
}

// Has reports possession of a verified piece.
func (s *Store) Has(piece int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Has(piece)
}

// Complete reports whether every piece is verified.
func (s *Store) Complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.have.Complete(s.meta.NumPieces())
}

// ReadBlock serves a verified block (the "piece" wire message payload)
// without copying it: the result is a view of the store's content,
// capacity-capped so an append cannot reach the next block. Verified
// pieces are immutable — WriteBlock ignores blocks of a piece it has
// verified — so the view never changes under a reader and may be
// written to a socket after the store's lock is released. It is
// read-only: callers must not modify it.
func (s *Store) ReadBlock(piece int, begin, length int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.have.Has(piece) {
		return nil, fmt.Errorf("torrent: piece %d not available", piece)
	}
	psize := s.meta.PieceSize(piece)
	if begin < 0 || length <= 0 || begin+length > psize {
		return nil, fmt.Errorf("torrent: block [%d,+%d) outside piece %d (size %d)", begin, length, piece, psize)
	}
	off := int64(piece)*s.meta.PieceLength + begin
	return s.data[off : off+length : off+length], nil
}

// ErrBadPiece reports a completed piece whose hash did not verify; the
// piece's blocks are discarded so they can be re-requested.
var ErrBadPiece = errors.New("torrent: piece failed hash verification")

// WriteBlock stores a received block. When the block completes its piece,
// the piece is verified: on success completed=true and the piece becomes
// readable; on hash mismatch the piece resets and ErrBadPiece returns.
func (s *Store) WriteBlock(piece int, begin int64, blk []byte) (completed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	psize := s.meta.PieceSize(piece)
	if psize == 0 {
		return false, fmt.Errorf("torrent: no such piece %d", piece)
	}
	if begin < 0 || begin%BlockSize != 0 || begin+int64(len(blk)) > psize {
		return false, fmt.Errorf("torrent: block [%d,+%d) outside piece %d (size %d)", begin, len(blk), piece, psize)
	}
	if s.have.Has(piece) {
		return false, nil // duplicate of a verified piece; ignore
	}
	prog, ok := s.pending[piece]
	if !ok {
		nblocks := int((psize + BlockSize - 1) / BlockSize)
		prog = &pieceProgress{blocks: make([]bool, nblocks)}
		s.pending[piece] = prog
	}
	bi := int(begin / BlockSize)
	off := int64(piece)*s.meta.PieceLength + begin
	copy(s.data[off:], blk)
	if !prog.blocks[bi] {
		prog.blocks[bi] = true
		prog.received++
	}
	if prog.received < len(prog.blocks) {
		return false, nil
	}
	// Piece complete: verify.
	start := int64(piece) * s.meta.PieceLength
	if !s.meta.VerifyPiece(piece, s.data[start:start+psize]) {
		delete(s.pending, piece)
		return false, ErrBadPiece
	}
	delete(s.pending, piece)
	s.have.Set(piece)
	return true, nil
}

// Bytes returns the content; call only when Complete.
func (s *Store) Bytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}

// NumBlocks returns the number of wire blocks in piece i.
func (s *Store) NumBlocks(piece int) int {
	psize := s.meta.PieceSize(piece)
	return int((psize + BlockSize - 1) / BlockSize)
}

// BlockSpec returns the (begin, length) of block b within piece i.
func (s *Store) BlockSpec(piece, b int) (begin, length int64) {
	psize := s.meta.PieceSize(piece)
	begin = int64(b) * BlockSize
	length = BlockSize
	if begin+length > psize {
		length = psize - begin
	}
	return begin, length
}
