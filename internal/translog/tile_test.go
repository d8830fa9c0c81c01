package translog

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTileMath pins the coordinate arithmetic the whole tile scheme
// rides on.
func TestTileMath(t *testing.T) {
	cases := []struct {
		n, level, nodes, full uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 1, 0},
		{255, 0, 255, 0},
		{256, 0, 256, 1},
		{257, 0, 257, 1},
		{512, 0, 512, 2},
		{65536, 0, 65536, 256},
		{65536, 1, 256, 1},
		{65537, 1, 256, 1},
		{1 << 16, 2, 1, 0},
		{1 << 24, 2, 256, 1},
		{1200, 0, 1200, 4},
		{1200, 1, 4, 0},
	}
	for _, c := range cases {
		if got := tileNodeCount(c.n, c.level); got != c.nodes {
			t.Errorf("tileNodeCount(%d, %d) = %d, want %d", c.n, c.level, got, c.nodes)
		}
		if got := fullTileCount(c.n, c.level); got != c.full {
			t.Errorf("fullTileCount(%d, %d) = %d, want %d", c.n, c.level, got, c.full)
		}
	}
}

// TestTileEncodeDecodeRoundTrip covers the checksummed framing: exact
// round trips, deterministic bytes, and rejection of every damage mode.
func TestTileEncodeDecodeRoundTrip(t *testing.T) {
	for _, width := range []int{1, 2, 137, TileWidth} {
		tile := &Tile{Level: 3, Index: 12345}
		for i := 0; i < width; i++ {
			tile.Hashes = append(tile.Hashes, LeafHash([]byte{byte(i), byte(width)}))
		}
		enc := encodeTile(tile)
		if string(enc) != string(encodeTile(tile)) {
			t.Fatal("encodeTile is not deterministic")
		}
		got, err := decodeTile(enc)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(got, tile) {
			t.Fatalf("width %d: round trip mismatch", width)
		}
		// Any flipped byte must fail the checksum (or the magic check).
		for _, pos := range []int{0, 9, len(enc) / 2, len(enc) - 1} {
			bad := append([]byte(nil), enc...)
			bad[pos] ^= 0x40
			if _, err := decodeTile(bad); err == nil {
				t.Fatalf("width %d: flipped byte %d accepted", width, pos)
			}
		}
		// Every strict prefix must be rejected, never panic.
		for n := 0; n < len(enc); n += 7 {
			if _, err := decodeTile(enc[:n]); err == nil {
				t.Fatalf("width %d: truncation to %d accepted", width, n)
			}
		}
	}
	if _, err := decodeTile(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// TestLogTileContents checks Log.Tile against the tree's raw node
// hashes at every level the tree supports, full and partial tiles both,
// and the range errors for everything past the committed head.
func TestLogTileContents(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200 // 4 full level-0 tiles + a 176-wide partial edge
	entries := mixedEntries(n)
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	for level := uint64(0); tileNodeCount(n, level) > 0; level++ {
		nodes := tileNodeCount(n, level)
		for index := uint64(0); index*TileWidth < nodes; index++ {
			width := TileWidth
			if rem := nodes - index*TileWidth; rem < TileWidth {
				width = int(rem)
			}
			tile, err := l.Tile(level, index, width)
			if err != nil {
				t.Fatalf("Tile(%d, %d, %d): %v", level, index, width, err)
			}
			if tile.Level != level || tile.Index != index || tile.Width() != width {
				t.Fatalf("Tile(%d, %d, %d) returned (%d, %d) width %d",
					level, index, width, tile.Level, tile.Index, tile.Width())
			}
			lo := index * TileWidth
			want, err := l.tree.nodes(int(level)*TileHeight, lo, lo+uint64(width))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tile.Hashes, want) {
				t.Fatalf("Tile(%d, %d, %d) disagrees with tree nodes", level, index, width)
			}
			// One hash past the committed edge must be refused.
			if _, err := l.Tile(level, index, width+1); width+1 <= TileWidth && !errors.Is(err, ErrTileRange) {
				t.Fatalf("Tile(%d, %d, %d) past edge: %v", level, index, width+1, err)
			}
		}
		// The first tile wholly past the edge must be refused.
		if _, err := l.Tile(level, nodes/TileWidth+1, 1); !errors.Is(err, ErrTileRange) {
			t.Fatalf("tile past level-%d edge: %v", level, err)
		}
	}
	for _, bad := range []struct {
		level, index uint64
		width        int
	}{
		{maxTileLevel + 1, 0, 1}, {0, 0, 0}, {0, 0, -4}, {0, 0, TileWidth + 1},
	} {
		if _, err := l.Tile(bad.level, bad.index, bad.width); !errors.Is(err, ErrTileRange) {
			t.Fatalf("Tile(%d, %d, %d): %v, want ErrTileRange", bad.level, bad.index, bad.width, err)
		}
	}
}

// TestTileAssemblerMatchesDirectProofs proves the client-side recursions
// reproduce the server's proofs exactly: every inclusion proof at every
// historical size, every consistency pair, and every root, assembled
// from tiles, must be byte-identical to what the tree computes directly.
func TestTileAssemblerMatchesDirectProofs(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300 // spans a full tile plus a ragged partial edge
	if _, err := l.AppendBatch(mixedEntries(n)); err != nil {
		t.Fatal(err)
	}
	asm := NewTileAssembler(l, 8)
	for size := uint64(1); size <= n; size += 7 {
		root, err := asm.RootAt(size)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", size, err)
		}
		direct, err := l.RootAt(size)
		if err != nil {
			t.Fatal(err)
		}
		if root != direct {
			t.Fatalf("RootAt(%d) disagrees with the tree", size)
		}
		for index := uint64(0); index < size; index += 11 {
			proof, err := asm.InclusionProof(index, size)
			if err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", index, size, err)
			}
			want, err := l.InclusionProof(index, size)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(proof, want) {
				t.Fatalf("InclusionProof(%d, %d) disagrees with the tree", index, size)
			}
		}
		for first := uint64(0); first <= size; first += 13 {
			proof, err := asm.ConsistencyProof(first, size)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", first, size, err)
			}
			want, err := l.ConsistencyProof(first, size)
			if err != nil {
				t.Fatal(err)
			}
			if len(proof) != len(want) || (len(proof) > 0 && !reflect.DeepEqual(proof, want)) {
				t.Fatalf("ConsistencyProof(%d, %d) disagrees with the tree", first, size)
			}
		}
	}
	if _, err := asm.InclusionProof(5, 4); !errors.Is(err, ErrTileRange) {
		t.Fatalf("index past size: %v", err)
	}
	if _, err := asm.ConsistencyProof(7, 3); !errors.Is(err, ErrTileRange) {
		t.Fatalf("shrinking consistency: %v", err)
	}
	hits, misses := asm.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("assembler LRU never exercised: hits=%d misses=%d", hits, misses)
	}
}

// TestColdRangeTileServing is the exhaustive cold-range matrix: a
// checkpointed-then-compacted log reopens with its prefix frozen out of
// memory, and every tile — wholly below the frozen boundary (hydrated
// from the .arc archives), straddling it, and on the live edge — must
// serve bytes identical to an always-resident reference log, and the
// proofs assembled from those tiles must verify against the signed head.
func TestColdRangeTileServing(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	const total, ckptAt = 1200, 800
	entries := mixedEntries(total)

	l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:ckptAt])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[ckptAt:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Every tile at every level, cold through live: byte-identical to the
	// reference (which also pins hydration to the checkpoint's content).
	for level := uint64(0); tileNodeCount(total, level) > 0; level++ {
		nodes := tileNodeCount(total, level)
		for index := uint64(0); index*TileWidth < nodes; index++ {
			width := TileWidth
			if rem := nodes - index*TileWidth; rem < TileWidth {
				width = int(rem)
			}
			got, err := re.Tile(level, index, width)
			if err != nil {
				t.Fatalf("cold Tile(%d, %d, %d): %v", level, index, width, err)
			}
			want, err := ref.Tile(level, index, width)
			if err != nil {
				t.Fatal(err)
			}
			if string(encodeTile(got)) != string(encodeTile(want)) {
				t.Fatalf("Tile(%d, %d, %d) bytes diverge from reference", level, index, width)
			}
		}
	}

	// Proofs assembled from the reopened log's tiles verify against the
	// signed head, across the frozen boundary in both directions.
	asm := NewTileAssembler(re, 0)
	sth := re.STH()
	root, err := asm.RootAt(sth.Size)
	if err != nil {
		t.Fatal(err)
	}
	if root != sth.RootHash {
		t.Fatal("tile-assembled root disagrees with the signed head")
	}
	for _, index := range []uint64{0, 255, 256, ckptAt - 1, ckptAt, total - 1} {
		proof, err := asm.InclusionProof(index, sth.Size)
		if err != nil {
			t.Fatalf("InclusionProof(%d): %v", index, err)
		}
		if err := VerifyInclusion(LeafHash(entries[index].Marshal()), index, sth.Size, proof, sth.RootHash); err != nil {
			t.Fatalf("assembled proof for %d: %v", index, err)
		}
	}
	for _, first := range []uint64{1, 255, 256, ckptAt, total} {
		proof, err := asm.ConsistencyProof(first, total)
		if err != nil {
			t.Fatalf("ConsistencyProof(%d, %d): %v", first, total, err)
		}
		firstRoot, err := ref.RootAt(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyConsistency(first, total, firstRoot, sth.RootHash, proof); err != nil {
			t.Fatalf("assembled consistency %d → %d: %v", first, total, err)
		}
	}
}

// TestTilePublisherBackgroundAndResume covers the off-commit-path
// publisher: commits that complete a tile trigger it, the watermark
// persists, a reopened log resumes instead of republishing, and the
// published pack records byte-match what Tile serves.
func TestTilePublisherBackgroundAndResume(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{NoSync: true}
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(600)
	appendAll(t, l, entries)
	if err := l.Close(); err != nil { // Close drains the background publisher
		t.Fatal(err)
	}
	closed := &Store{dir: dir}
	defer closed.Close()
	if mark := closed.loadTileMark(); mark != 600 {
		t.Fatalf("published watermark %d, want 600", mark)
	}
	for index := uint64(0); index < 2; index++ {
		if _, ok := closed.readTile(0, index); !ok {
			t.Fatalf("published tile (0, %d) missing from its pack", index)
		}
	}

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.tileMark.Load(); got != 600 {
		t.Fatalf("reopened watermark %d, want 600", got)
	}
	published := mTilesPublished.Value()
	tile, err := re.Tile(0, 0, TileWidth)
	if err != nil {
		t.Fatal(err)
	}
	if mTilesPublished.Value() != published {
		t.Fatal("cache hit still republished the tile")
	}
	if got := packRecord(t, dir, 0, 0); string(got) != string(encodeTile(tile)) {
		t.Fatal("served tile bytes differ from the published pack record")
	}
}

// TestTileServingTakesNoCommitLockAndHashesNothing pins the tentpole
// no-contention claim two ways at once: a below-watermark full tile is
// served through the HTTP handler while the test holds the log's commit
// lock (so any acquisition — including the hydration path's — would
// deadlock and time the request out), and its pack record has been
// overwritten with distinctive valid-CRC bytes beforehand, so getting
// those bytes back verbatim proves the response came from one pack
// record read — no tree access, no hashing.
func TestTileServingTakesNoCommitLockAndHashesNothing(t *testing.T) {
	key := testSigner(t)
	l, err := OpenDurableLog(key, t.TempDir(), StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, mixedEntries(600))
	if err := l.PublishTiles(); err != nil {
		t.Fatal(err)
	}

	// Plant a marker tile: same coordinates, distinctive hashes. The
	// framing is valid, so only the pack-read path can produce it.
	marker := &Tile{Level: 0, Index: 0, Hashes: make([]Hash, TileWidth)}
	for i := range marker.Hashes {
		for j := range marker.Hashes[i] {
			marker.Hashes[i][j] = 0xA5
		}
	}
	if err := l.store.writeTile(marker); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	client := NewClient(srv.URL, &key.PublicKey)

	l.mu.Lock()
	got := make(chan *Tile, 1)
	fail := make(chan error, 1)
	go func() {
		tile, err := client.Tile(0, 0, TileWidth)
		if err != nil {
			fail <- err
			return
		}
		got <- tile
	}()
	select {
	case tile := <-got:
		if string(encodeTile(tile)) != string(encodeTile(marker)) {
			l.mu.Unlock()
			t.Fatal("tile not served verbatim from the pack record")
		}
	case err := <-fail:
		l.mu.Unlock()
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		l.mu.Unlock()
		t.Fatal("tile request blocked while the commit lock was held")
	}
	l.mu.Unlock()
}

// TestTileHTTPCacheHeaders pins the cacheability matrix: what a front
// cache may keep forever, briefly, or never.
func TestTileHTTPCacheHeaders(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(600)); err != nil { // 2 full tiles + 88-wide edge
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get("Cache-Control")
	}
	cases := []struct {
		path   string
		status int
		cache  string
	}{
		{"/translog/v1/tile/0/0", 200, cacheImmutable},
		{"/translog/v1/tile/0/1", 200, cacheImmutable},
		{"/translog/v1/tile/1/0.p/2", 200, cachePartialTile},
		{"/translog/v1/tile/0/2.p/88", 200, cachePartialTile},
		{"/translog/v1/tile/0/2", 404, ""},       // right edge not full yet
		{"/translog/v1/tile/0/2.p/89", 404, ""},  // one past the edge
		{"/translog/v1/tile/8/0", 404, ""},       // level beyond maxTileLevel
		{"/translog/v1/tile/0/0.p/256", 404, ""}, // full width via partial form
		{"/translog/v1/tile/0/0.p/0", 404, ""},   // zero width
		{"/translog/v1/tile/0/junk", 404, ""},    // malformed index
		{"/translog/v1/tile/0", 404, ""},         // missing index
		{"/translog/v1/tile/0/0/1/2", 404, ""},   // junk suffix
		{"/translog/v1/sth", 200, cacheNoCache},
		{"/translog/v1/entries?start=0&count=10", 200, cacheImmutable},
		{"/translog/v1/entries?start=590&count=20", 200, cacheNoCache}, // clamped at the head
		{"/translog/v1/entries?start=0&count=0", 200, cacheNoCache},
		{"/translog/v1/inclusion?index=3&size=600", 200, cacheImmutable},
		{"/translog/v1/consistency?first=10&second=600", 200, cacheImmutable},

		// 2^56·256 wraps a uint64 to 0: must not serve tile 0's hashes.
		{"/translog/v1/tile/0/72057594037927936", 404, ""},
	}
	for _, c := range cases {
		resp, cache := get(c.path)
		if resp.StatusCode != c.status {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.status)
			continue
		}
		if c.status == 200 && cache != c.cache {
			t.Errorf("GET %s: Cache-Control %q, want %q", c.path, cache, c.cache)
		}
	}
}

// TestClientTileProofSourceEndToEnd drives the full remote path: lookup
// without a server-computed proof, tile fetches over HTTP, local
// assembly, and the credential checker verdict on the finished bundle.
func TestClientTileProofSourceEndToEnd(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(700)
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	client := NewClient(srv.URL, &key.PublicKey)

	source := NewTileProofSource(client, 16)
	serial := issuedSerial(t, entries)
	pb, err := source.ProveSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatalf("assembled bundle fails verification: %v", err)
	}
	direct, err := l.ProveSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pb.Proof, direct.Proof) {
		t.Fatal("assembled proof differs from the server-computed one")
	}

	// The second proof for the same serial reuses cached tiles: zero new
	// misses.
	_, misses := source.Stats()
	if _, err := source.ProveSerial(serial); err != nil {
		t.Fatal(err)
	}
	if _, after := source.Stats(); after != misses {
		t.Fatalf("repeat proof missed the tile cache: %d → %d", misses, after)
	}

	// Revoked and never-logged keep their distinct verdicts through the
	// ?proof=0 path.
	var revokedSerial string
	for _, e := range entries {
		if e.Type == EntryRevoke {
			revokedSerial = e.Serial
			break
		}
	}
	if _, err := source.ProveSerial(revokedSerial); !errors.Is(err, ErrLogRevoked) {
		t.Fatalf("revoked serial: %v", err)
	}
	if _, err := source.ProveSerial("no-such-serial"); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("unknown serial: %v", err)
	}
}

// TestClientsShareTransportConnections pins the pooled-transport
// satellite: many clients against one server reuse one idle connection
// instead of opening one per client.
func TestClientsShareTransportConnections(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(10)); err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(Handler(l))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	for i := 0; i < 4; i++ {
		c := NewClient(srv.URL, &key.PublicKey)
		for j := 0; j < 3; j++ {
			if _, err := c.STH(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("12 sequential requests from 4 clients opened %d connections, want the shared pool to reuse 1", got)
	}
}

// TestGossipTileProofs checks a witness advancing on tile-assembled
// consistency proofs: same verdicts, no consistency-endpoint dependency.
func TestGossipTileProofs(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(900)
	if _, err := l.AppendBatch(entries[:400]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	pool := NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(srv.URL, &key.PublicKey))
	pool.UseTileProofs(8)
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(entries[400:]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	last, seen := pool.Witness().Last()
	if !seen || last.Size != 900 {
		t.Fatalf("witness head %d (seen=%v), want 900", last.Size, seen)
	}
	hits, misses := pool.tiles.Stats()
	if hits+misses == 0 {
		t.Fatal("tile assembler never consulted for the advance")
	}
}

// packRecord returns the raw record of tile (level, index) from its
// level's pack under the store directory dir.
func packRecord(t *testing.T, dir string, level, index uint64) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, tilesDirName, tilePackName(level)))
	if err != nil {
		t.Fatal(err)
	}
	off := int64(index) * tileRecordSize
	if int64(len(data)) < off+tileRecordSize {
		t.Fatalf("pack of level %d holds no record %d (%d bytes)", level, index, len(data))
	}
	return data[off : off+tileRecordSize]
}

// TestTilePackDamageIsAMiss covers every way a pack record can be wrong
// — a hole left by a write-through past what the pack holds, a
// truncated pack, a zeroed record, a garbage record, and a valid record
// copied from another index. Each must read as a cache miss, be served
// byte-identical to the tree's tile, and be rewritten so the next read
// is a hit.
func TestTilePackDamageIsAMiss(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(3*TileWidth + 40) // level-0 tiles 0..2 are full
	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	overwrite := func(t *testing.T, pack string, data []byte, off int64) {
		t.Helper()
		f, err := os.OpenFile(pack, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		index  uint64 // the damaged tile
		damage func(t *testing.T, l *Log, pack string)
	}{
		{"hole", 1, func(t *testing.T, l *Log, pack string) {
			// Keep only record 0, then let a write-through of tile 2
			// extend the pack around a zero-filled hole at record 1.
			if err := os.Truncate(pack, tileRecordSize); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Tile(0, 2, TileWidth); err != nil {
				t.Fatal(err)
			}
			if _, ok := l.store.readTile(0, 2); !ok {
				t.Fatal("write-through past the pack's end was not cached")
			}
		}},
		{"truncated", 2, func(t *testing.T, _ *Log, pack string) {
			if err := os.Truncate(pack, 2*tileRecordSize+tileRecordSize/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"zeroed", 1, func(t *testing.T, _ *Log, pack string) {
			overwrite(t, pack, make([]byte, tileRecordSize), tileRecordSize)
		}},
		{"garbage", 1, func(t *testing.T, _ *Log, pack string) {
			junk := make([]byte, tileRecordSize)
			for i := range junk {
				junk[i] = byte(i*131 + 7)
			}
			overwrite(t, pack, junk, tileRecordSize)
		}},
		{"other-index", 1, func(t *testing.T, _ *Log, pack string) {
			// A well-formed, checksummed record — of tile 0.
			overwrite(t, pack, packRecord(t, filepath.Dir(filepath.Dir(pack)), 0, 0), tileRecordSize)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			if err := l.PublishTiles(); err != nil {
				t.Fatal(err)
			}
			// No background publisher may hold the write-through lock.
			l.tileWG.Wait()
			tc.damage(t, l, filepath.Join(dir, tilesDirName, tilePackName(0)))

			if _, ok := l.store.readTile(0, tc.index); ok {
				t.Fatal("damaged record read as a cache hit")
			}
			want, err := ref.Tile(0, tc.index, TileWidth)
			if err != nil {
				t.Fatal(err)
			}
			misses, hits := mTileCacheMisses.Value(), mTileCacheHits.Value()
			got, err := l.Tile(0, tc.index, TileWidth)
			if err != nil {
				t.Fatal(err)
			}
			if mTileCacheMisses.Value() != misses+1 {
				t.Fatal("damaged record not counted as a cache miss")
			}
			if string(encodeTile(got)) != string(encodeTile(want)) {
				t.Fatal("tile served over a damaged record differs from the tree's")
			}
			if string(packRecord(t, dir, 0, tc.index)) != string(encodeTile(want)) {
				t.Fatal("damaged record was not rewritten")
			}
			if _, err := l.Tile(0, tc.index, TileWidth); err != nil {
				t.Fatal(err)
			}
			if mTileCacheHits.Value() != hits+1 {
				t.Fatal("rewritten record is not a cache hit")
			}
		})
	}
}

// TestTilePackUpgradeFromPerTileFiles stages a statedir in the
// one-file-per-tile layout — loose tile-*.til files, a stray .til.tmp
// and a watermark covering them, but no packs — and reopens it: the
// mark is not trusted without the level-0 pack, so the publisher
// refills the packs and every full tile is a pack hit, and the loose
// files are gone.
func TestTilePackUpgradeFromPerTileFiles(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{NoSync: true}
	const n = 600
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(n))
	var loose []*Tile
	for index := uint64(0); index < fullTileCount(n, 0); index++ {
		tile, err := l.Tile(0, index, TileWidth)
		if err != nil {
			t.Fatal(err)
		}
		loose = append(loose, tile)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	tiles := filepath.Join(dir, tilesDirName)
	packs, err := filepath.Glob(filepath.Join(tiles, "level-*.pack"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no packs to remove: %v %v", packs, err)
	}
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tile := range loose {
		name := fmt.Sprintf("tile-%d-%020d.til", tile.Level, tile.Index)
		if err := os.WriteFile(filepath.Join(tiles, name), encodeTile(tile), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(tiles, "tile-0-00000000000000000002.til.tmp"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	if mark, err := os.ReadFile(filepath.Join(tiles, tileMarkFileName)); err != nil || string(mark) != "600" {
		t.Fatalf("staged watermark %q (%v), want 600", mark, err)
	}

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.PublishTiles(); err != nil {
		t.Fatal(err)
	}
	for level := uint64(0); fullTileCount(n, level) > 0; level++ {
		for index := uint64(0); index < fullTileCount(n, level); index++ {
			if _, ok := re.store.readTile(level, index); !ok {
				t.Fatalf("tile (%d, %d) is not a pack hit after the upgrade", level, index)
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(tiles, "*.til*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("old-layout files left behind: %v %v", left, err)
	}
}

// TestTilePackConcurrentPublishReadClose races a looping publisher and
// tile readers against Log.Close under -race: a Tile call on the closed
// log falls back to the tree or errors, never panics, and everything
// served, before or after Close, is byte-identical to the tree's tile.
func TestTilePackConcurrentPublishReadClose(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(3*TileWidth + 40)
	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	var want []string
	for index := uint64(0); index < 3; index++ {
		tile, err := ref.Tile(0, index, TileWidth)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(encodeTile(tile)))
	}
	l, err := OpenDurableLog(key, t.TempDir(), StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // republishes every tile, over and over
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.tileMark.Store(0)
			_ = l.PublishTiles()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				index := uint64(i % 3)
				tile, err := l.Tile(0, index, TileWidth)
				if err == nil && string(encodeTile(tile)) != want[index] {
					t.Errorf("tile (0, %d) served wrong bytes", index)
					return
				}
				reads.Add(1)
			}
		}()
	}
	waitReads := func(n int64) {
		for deadline := time.Now().Add(10 * time.Second); reads.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	waitReads(200)
	if err := l.Close(); err != nil {
		t.Error(err)
	}
	waitReads(reads.Load() + 200) // readers and the publisher keep going on the closed log
	close(stop)
	wg.Wait()
	if tile, err := l.Tile(0, 0, TileWidth); err == nil && string(encodeTile(tile)) != want[0] {
		t.Fatal("tile served after Close differs from the tree's")
	}
}
