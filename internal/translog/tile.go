package translog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Tile-based proof serving (the CT "static log" design): the tree's
// interior levels are cut into fixed-width tiles of 2^TileHeight node
// hashes. A full tile is immutable forever — the tree is append-only,
// so once the 256 nodes a tile names exist, no commit can ever change
// them — which makes (level, index) a content address: the same
// coordinates always serve the same bytes, cacheable for a year by any
// HTTP front end or client LRU. Proofs then become client-assembled
// from cacheable tile fetches, and the live tree only answers for the
// growing right edge (partial tiles) — proof traffic stops riding the
// structure the sequencer commits into.
//
// Tile (L, K) holds the node hashes at tree level L·TileHeight with
// global indices [K·TileWidth, (K+1)·TileWidth). It is full when the
// tree has grown all TileWidth of them; the right edge of each level is
// a partial tile, addressed with its explicit width so every (L, K, w)
// URL still names immutable content (append-only levels never rewrite
// a node), just short-lived in caches because clients soon want wider.
//
// On a durable log, full tiles are persisted into <dir>/tiles/ — one
// pack file per tile level — by a background publisher that runs off
// the commit path (like the checkpoint writer), so serving a
// frozen-range tile is one checksum-verified record read: no tree
// access, no hashing, no log lock — pinned by
// TestTileServingTakesNoCommitLockAndHashesNothing and the lockscope
// lint rule. The packs are a rebuildable cache, not trust state (a
// served tile is only believed through the proofs it assembles into,
// verified against a signed head), so they are written without fsync
// and a damaged record is simply rebuilt from the tree or the hydrated
// .arc archives.

const (
	// TileHeight is the number of tree levels one tile level spans.
	TileHeight = 8 //lint:allow unusedexport README-documented tile geometry; external auditors need it to address tiles
	// TileWidth is the number of node hashes in a full tile.
	TileWidth = 1 << TileHeight //lint:allow unusedexport README-documented tile geometry; external auditors need it to address tiles
	// maxTileLevel bounds the tile-level coordinate: level 7 tiles cover
	// 2^56-leaf subtrees, enough for any tree a uint64 size can name.
	maxTileLevel = 7
)

// ErrTileRange reports a tile request beyond the committed tree (or with
// impossible coordinates). The HTTP layer maps it to 404 so front caches
// never memorise a right edge that does not exist yet.
var ErrTileRange = errors.New("translog: tile out of committed range") //lint:allow unusedexport tile-request error contract of exported Log/Client.Tile; errors.Is target

// Tile is one subtree tile: Hashes are the node hashes at tree level
// Level·TileHeight, global indices [Index·TileWidth, Index·TileWidth +
// len(Hashes)).
type Tile struct {
	Level  uint64
	Index  uint64
	Hashes []Hash
}

// Width returns the number of hashes the tile carries (TileWidth for a
// full tile).
func (t *Tile) Width() int { return len(t.Hashes) }

// tileMagic identifies the tile wire and pack-record framing (and its
// version), following the checkpoint.bin / .arc conventions.
var tileMagic = [8]byte{'V', 'N', 'F', 'G', 'T', 'I', 'L', '1'}

// encodeTile renders the checksummed framing: magic ‖ level(8) ‖
// index(8) ‖ width(4) ‖ hashes ‖ CRC-32C. The encoding is fully
// deterministic — same tree, same coordinates, byte-identical output —
// which is what content-addressing and the immutable cache headers
// depend on (pinned by FuzzTileDeterminism).
func encodeTile(t *Tile) []byte {
	buf := make([]byte, 0, len(tileMagic)+20+len(t.Hashes)*len(Hash{})+4)
	buf = append(buf, tileMagic[:]...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], t.Level)
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], t.Index)
	buf = append(buf, u64[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(t.Hashes)))
	buf = append(buf, u32[:]...)
	for _, h := range t.Hashes {
		buf = append(buf, h[:]...)
	}
	binary.BigEndian.PutUint32(u32[:], crc32.Checksum(buf, crcTable))
	return append(buf, u32[:]...)
}

// decodeTile parses and checksum-verifies one encoded tile.
func decodeTile(data []byte) (*Tile, error) {
	if len(data) < len(tileMagic)+24 || !bytes.Equal(data[:len(tileMagic)], tileMagic[:]) {
		return nil, fmt.Errorf("translog: tile malformed")
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("translog: tile checksum mismatch")
	}
	rest := body[len(tileMagic):]
	t := &Tile{
		Level: binary.BigEndian.Uint64(rest[:8]),
		Index: binary.BigEndian.Uint64(rest[8:16]),
	}
	width := binary.BigEndian.Uint32(rest[16:20])
	rest = rest[20:]
	if width == 0 || width > TileWidth || uint64(len(rest)) != uint64(width)*uint64(len(Hash{})) {
		return nil, fmt.Errorf("translog: tile width %d disagrees with its payload", width)
	}
	t.Hashes = make([]Hash, width)
	for i := range t.Hashes {
		copy(t.Hashes[i][:], rest[i*len(Hash{}):])
	}
	return t, nil
}

// tileNodeCount returns how many nodes exist at tile level L for a tree
// of n leaves.
func tileNodeCount(n, level uint64) uint64 {
	return n >> (TileHeight * level)
}

// fullTileCount returns how many full tiles exist at tile level L for a
// tree of n leaves.
func fullTileCount(n, level uint64) uint64 {
	return n >> (TileHeight * (level + 1))
}

// Statedir tile cache, under <dir>/tiles/: one pack file per tile
// level, holding full tile (L, K) as the fixed-size encodeTile record
// at offset K·tileRecordSize of level-<L>.pack — positioned writes into
// a handful of files instead of one file creation per tile. The
// published watermark (the committed size the publisher has covered)
// rides in its own small file so a reopened log resumes publishing
// where it stopped.

const (
	tilesDirName     = "tiles"
	tileMarkFileName = "published"
	// tileRecordSize is len(encodeTile) of a full tile.
	tileRecordSize = int64(len(tileMagic)) + 20 + TileWidth*int64(len(Hash{})) + 4
)

// tilePackName renders the pack file name for a tile level.
func tilePackName(level uint64) string { return fmt.Sprintf("level-%d.pack", level) }

// tilePack returns level's pack, opening (creating) it on first use;
// nil once the store is closed or if the pack cannot be opened.
func (s *Store) tilePack(level uint64) *os.File {
	s.packMu.Lock()
	defer s.packMu.Unlock()
	if s.packs[level] == nil && !s.packsClosed {
		dir := filepath.Join(s.dir, tilesDirName)
		if os.MkdirAll(dir, 0o700) == nil {
			//lint:allow atomicwrite rebuildable cache: every record is checksummed and self-naming, so a torn or stale one reads as a miss; fsync durability not wanted
			s.packs[level], _ = os.OpenFile(filepath.Join(dir, tilePackName(level)), os.O_RDWR|os.O_CREATE, 0o600)
		}
	}
	return s.packs[level]
}

// readTile loads one full tile from its level's pack; ok=false on any
// miss or damage — a hole, a torn record, one naming other coordinates
// (the cache is rebuildable, so a bad record is just a miss).
func (s *Store) readTile(level, index uint64) (*Tile, bool) {
	f := s.tilePack(level)
	if f == nil {
		return nil, false
	}
	buf := make([]byte, tileRecordSize)
	if _, err := f.ReadAt(buf, int64(index)*tileRecordSize); err != nil {
		return nil, false
	}
	t, err := decodeTile(buf)
	if err != nil || t.Level != level || t.Index != index || t.Width() != TileWidth {
		return nil, false
	}
	return t, true
}

// writeTile persists one full tile as its pack record, without fsync:
// the packs are a cache rebuilt from the tree (or the hydrated
// archives) on demand, and a reader racing this write or a crash
// tearing it sees a record failing its checksum — a miss.
func (s *Store) writeTile(t *Tile) error {
	f := s.tilePack(t.Level)
	if f == nil {
		return fmt.Errorf("translog: tile pack for level %d unavailable", t.Level)
	}
	_, err := f.WriteAt(encodeTile(t), int64(t.Index)*tileRecordSize)
	return err
}

// loadTileMark reads the published watermark, trusted only beside the
// level-0 pack: a statedir from the one-file-per-tile layout (or with
// its packs deleted) drops its mark and starts at 0, so the publisher
// refills the packs. The old layout's tile-*.til and *.til.tmp files
// are removed, best effort.
func (s *Store) loadTileMark() uint64 {
	dir := filepath.Join(s.dir, tilesDirName)
	old, _ := filepath.Glob(filepath.Join(dir, "*.til*"))
	for _, p := range old {
		os.Remove(p)
	}
	if _, err := os.Stat(filepath.Join(dir, tilePackName(0))); err != nil {
		os.Remove(filepath.Join(dir, tileMarkFileName))
		return 0
	}
	data, err := os.ReadFile(filepath.Join(dir, tileMarkFileName))
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// storeTileMark persists the published watermark (best effort, no
// fsync — a stale mark only costs republishing byte-identical tiles;
// without a tiles dir there is no pack the mark could vouch for).
func (s *Store) storeTileMark(n uint64) {
	//lint:allow atomicwrite rebuildable cache watermark: rename atomicity wanted, fsync durability not
	_ = atomicWriteFile(filepath.Join(s.dir, tilesDirName, tileMarkFileName), []byte(strconv.FormatUint(n, 10)), false)
}

// Tile returns the tile at (level, index), carrying exactly width node
// hashes. Full-tile requests (width == TileWidth) on a durable log are
// served from the statedir tile cache first — one record read from the
// level's pack, no tree access, no hashing, and never the log's commit
// lock, so tile traffic cannot contend with a commit holding that lock
// across its WAL fsync. A miss (or any partial-tile request) extracts
// the hashes from the tree under the tree's own read lock — still zero
// hashing, every interior level is resident — hydrating the cold
// prefix from the .arc archives when the range sits below a
// checkpoint, and writes full tiles back through to the cache.
// Requests past the committed head return ErrTileRange.
func (l *Log) Tile(level, index uint64, width int) (*Tile, error) {
	if level > maxTileLevel || width <= 0 || width > TileWidth {
		return nil, fmt.Errorf("%w: level %d width %d", ErrTileRange, level, width)
	}
	// Bound the request by the committed head (an atomic, not the log
	// lock): the tree may momentarily hold nodes of a batch that is
	// still fsyncing and could yet roll back, and an immutable-cacheable
	// response must never leak those. Checking index first keeps
	// index·TileWidth from wrapping onto a real tile.
	n := tileNodeCount(l.committed.Load(), level)
	lo := index * TileWidth
	hi := lo + uint64(width)
	if index > n/TileWidth || hi > n {
		return nil, fmt.Errorf("%w: tile (%d, %d) width %d", ErrTileRange, level, index, width)
	}
	full := width == TileWidth
	if full && l.store != nil {
		if t, ok := l.store.readTile(level, index); ok {
			mTileCacheHits.Inc()
			return t, nil
		}
		mTileCacheMisses.Inc()
	}
	hashes, err := hydrated(l, func() ([]Hash, error) { return l.tree.nodes(int(level)*TileHeight, lo, hi) })
	if err != nil {
		return nil, err
	}
	t := &Tile{Level: level, Index: index, Hashes: hashes}
	if full && l.store != nil && l.tileWriteMu.TryLock() {
		// Write-through so the next request is a pack read. Best effort:
		// a failed cache write must not fail the tile it caches, and a
		// request never waits for another cache writer — skipping the
		// write costs at most one more miss.
		if l.store.writeTile(t) == nil {
			mTilesPublished.Inc()
		}
		l.tileWriteMu.Unlock()
	}
	return t, nil
}

// tilesDue reports whether committing up to size completed at least one
// full level-0 tile the publisher has not covered.
func (l *Log) tilesDue(size uint64) bool {
	return fullTileCount(size, 0) > fullTileCount(l.tileMark.Load(), 0)
}

// publishTilesBG is the background publisher goroutine spawned by the
// commit path (at most one in flight, like the checkpoint writer).
func (l *Log) publishTilesBG() {
	defer l.tileWG.Done()
	defer l.tileBusy.Store(false)
	_ = l.PublishTiles()
}

// PublishTiles persists every full tile the committed tree supports
// that the publisher has not yet covered, then advances the durable
// watermark. The automatic path runs this in the background after
// commits complete a tile; the method is exposed for operator tooling
// and deterministic tests. Best-effort by design: on error the tiles
// remain servable from the tree and the next trigger retries.
func (l *Log) PublishTiles() error {
	if l.store == nil {
		return fmt.Errorf("translog: publishing tiles of an in-memory log")
	}
	l.tileWriteMu.Lock()
	defer l.tileWriteMu.Unlock()
	n := l.committed.Load()
	mark := l.tileMark.Load()
	for level := uint64(0); level <= maxTileLevel && fullTileCount(n, level) > 0; level++ {
		for index := fullTileCount(mark, level); index < fullTileCount(n, level); index++ {
			lo := index * TileWidth
			hashes, err := hydrated(l, func() ([]Hash, error) {
				return l.tree.nodes(int(level)*TileHeight, lo, lo+TileWidth)
			})
			if err != nil {
				return err
			}
			if err := l.store.writeTile(&Tile{Level: level, Index: index, Hashes: hashes}); err != nil {
				return err
			}
			mTilesPublished.Inc()
		}
	}
	l.tileMark.Store(n)
	l.store.storeTileMark(n)
	mTileMark.Set(int64(n))
	return nil
}
