package translog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/obs"
)

// Durable-state errors. Recovery distinguishes the three ways a statedir
// can disagree with its own signed tree head, because operators react
// differently to each: corruption wants a restore from backup, rollback
// and tamper want an incident response — a restart must never quietly
// re-serve a rewritten history (that would be exactly the attack the
// witness exists to catch, executed locally).
var (
	// ErrStateCorrupt reports a damaged record: a checksum mismatch or an
	// impossible frame somewhere other than a cleanly torn tail.
	ErrStateCorrupt = errors.New("translog: on-disk log state corrupt") //lint:allow unusedexport README-documented recovery taxonomy; reaches callers wrapped in open errors
	// ErrStateRollback reports fewer durable entries than the persisted
	// signed tree head covers — committed history was deleted.
	ErrStateRollback = errors.New("translog: on-disk log state rolled back")
	// ErrStateTampered reports durable entries whose recomputed Merkle
	// root contradicts the persisted signed tree head — history was
	// rewritten in place.
	ErrStateTampered = errors.New("translog: on-disk log state tampered") //lint:allow unusedexport README-documented recovery taxonomy; reaches callers wrapped in open errors
)

// Append-path errors the HTTP layer maps to status codes, so a producer
// can tell "this batch is unacceptable" (drop it) from "the store is
// down" (retry later).
var (
	// ErrEntryTooLarge reports an entry whose encoding exceeds the WAL
	// record frame limit; it is refused before any byte is written and
	// the store stays healthy.
	ErrEntryTooLarge = errors.New("translog: entry exceeds record size limit") //lint:allow unusedexport append error contract the HTTP layer maps to a status code; errors.Is target
	// ErrStoreFailed reports a latched durable-store failure (or a closed
	// store): every append fails until the store is reopened.
	ErrStoreFailed = errors.New("translog: durable store unavailable") //lint:allow unusedexport append error contract the HTTP layer maps to a status code; errors.Is target
)

// sthFileName holds the latest durably persisted signed tree head.
const sthFileName = "sth.json"

// shardsFileName pins a sharded store's stream count at creation, so
// reopening with a different StoreConfig.Shards cannot silently change
// the host→stream routing (the on-disk layout really is fixed at store
// creation, as documented). The count is layout metadata, not trust
// state: the records themselves are authenticated by their global
// indices under the signed root, whatever stream they sit in.
const shardsFileName = "shards"

// loadShardCount reads the pinned stream count; ok=false when the store
// predates sharding or is single-stream.
func loadShardCount(dir string) (int, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardsFileName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("translog: reading shard count: %w", err)
	}
	n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
	if perr != nil || n < 2 || n > maxShardSlots {
		return 0, false, fmt.Errorf("%w: shard count file holds %q", ErrStateCorrupt, strings.TrimSpace(string(data)))
	}
	return n, true, nil
}

// saveShardCount pins the stream count at store creation.
func saveShardCount(dir string, n int, noSync bool) error {
	return atomicWriteFile(filepath.Join(dir, shardsFileName), []byte(strconv.Itoa(n)), !noSync)
}

// StoreConfig tunes the durable store.
type StoreConfig struct {
	// SegmentMaxBytes rotates to a fresh segment file once the active one
	// reaches this size (default 1 MiB).
	SegmentMaxBytes int64
	// NoSync skips fsync on the append path. Only for tests and
	// benchmarks that measure the non-durability costs; a production log
	// without fsync can lose acknowledged entries on power failure.
	NoSync bool
	// Anchors are additional trust anchors layered over the built-in
	// persisted-head check (anchor.go): each is verified against the
	// recovered state at open and notified of every committed head, in
	// order. Anchors that implement io.Closer are closed with the store.
	Anchors []TrustAnchor
	// Shards, when > 1, splits the WAL into that many per-host segment
	// streams (seg-h<shard>-*.wal): every entry is routed to the stream
	// ShardOf picks for its host and framed with its global tree index,
	// so a merging sequencer can commit many hosts' batches under one
	// tree head — the touched streams are written and fsynced in
	// parallel, then the head and anchor chain bump once per cycle —
	// while recovery interleaves the streams back into the exact global
	// order. The layout is fixed at store creation: opening an existing
	// store keeps whichever layout is on disk. 0 or 1 keeps the single
	// stream.
	Shards int
	// CheckpointEvery, when > 0, persists an anchor-verified checkpoint
	// (frozen subtree roots + serial-index snapshot, signed by the log
	// key) every time the log grows that many entries past the previous
	// checkpoint, and compacts the WAL segments the checkpoint froze
	// into read-optimised archive files. Recovery then replays only the
	// WAL suffix past the checkpoint instead of the whole log — the
	// flat-restart property a long-lived production log needs. 0
	// disables checkpointing (every open replays from index zero,
	// exactly as before).
	CheckpointEvery uint64
}

// Store is the write-ahead, append-only on-disk half of a durable Log:
// length-prefixed checksummed records in size-capped segment files plus
// an atomically replaced latest signed tree head. All writes arrive
// pre-batched from Log.AppendBatch, so one store call — and therefore
// one fsync of the active segment and one of the tree head — covers a
// whole appender batch.
type Store struct { //lint:allow unusedexport the documented storage layer beneath Log; exported seam for store-level tests and benchmarks
	dir string
	cfg StoreConfig
	// anchors is the full trust-anchor chain, the built-in sthAnchor
	// first: every committed head flows through each of them.
	anchors []TrustAnchor
	// anchorHist are the chain's pre-resolved per-anchor commit-latency
	// histograms, parallel to anchors — resolved once at open so the
	// commit path never touches the telemetry registry.
	anchorHist []*obs.Histogram

	// lastCkpt is the size covered by the newest durable checkpoint
	// (0 when none): the log's checkpoint trigger compares it against
	// the committed size.
	lastCkpt atomic.Uint64
	// compactMu serialises compaction runs against cold-prefix reads,
	// so hydration never races a segment unlink.
	compactMu sync.Mutex
	// packMu guards the tile cache's per-level pack handles (opened
	// lazily by tilePack, closed by Close), never the pack I/O.
	packMu      sync.Mutex
	packs       [maxTileLevel + 1]*os.File
	packsClosed bool

	mu sync.Mutex
	// shards is the active layout: 0 for the legacy single stream,
	// otherwise the number of per-host streams. It is fixed at open.
	shards int
	// streams are the append tails — one for the single layout, shards
	// of them otherwise. Streams rotate their segment files
	// independently.
	streams []*stream
	// size is the number of durably framed entries.
	size uint64
	// failed latches the first write error: after a partial batch write
	// the in-memory log and the disk may disagree, so the store refuses
	// further appends instead of compounding the divergence.
	failed error
}

// stream is one append tail: the legacy whole-log stream (shard < 0) or
// one host slot's segment stream.
type stream struct {
	shard int
	// active is the open tail segment (nil until the first append or
	// when the last recovery ended exactly on a rotation boundary).
	active     *os.File
	activeSize int64
	// count is the number of records durably framed in this stream — the
	// next segment's first ordinal (for the legacy stream this equals
	// the global entry count).
	count uint64
	// scratch is the stream's reusable frame buffer: one writer owns a
	// stream at a time, so recycling it keeps a large commit cycle from
	// allocating (and the runtime from zeroing) megabytes per cycle.
	scratch []byte
}

// name renders the segment file name for the stream's segment whose
// first record is ordinal first.
func (st *stream) name(first uint64) string {
	if st.shard < 0 {
		return segmentName(first)
	}
	return shardSegmentName(st.shard, first)
}

// openStoreDir creates the store directory and returns a Store resuming
// the verified recovered state rec. anchors is the trust-anchor chain
// (built-in sthAnchor first).
func openStoreDir(dir string, cfg StoreConfig, anchors []TrustAnchor, rec *recovered) (*Store, error) {
	if cfg.SegmentMaxBytes <= 0 {
		cfg.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	s := &Store{dir: dir, cfg: cfg, anchors: anchors, shards: rec.shards, size: rec.size()}
	for _, a := range anchors {
		s.anchorHist = append(s.anchorHist, anchorHistogram(a.Name()))
	}
	for i, tail := range rec.tails {
		st := &stream{shard: -1, count: tail.count}
		if rec.shards > 0 {
			st.shard = i
		}
		if tail.hasTail {
			path := filepath.Join(dir, st.name(tail.tailFirst))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				s.closeStreams()
				return nil, fmt.Errorf("translog: reopening tail segment: %w", err)
			}
			st.active, st.activeSize = f, tail.tailClean
		}
		s.streams = append(s.streams, st)
	}
	return s, nil
}

// closeStreams closes any tail files already opened (error-path cleanup).
func (s *Store) closeStreams() {
	for _, st := range s.streams {
		if st.active != nil {
			st.active.Close()
			st.active = nil
		}
	}
}

// shardCount reports the number of per-host streams the store writes
// (0 for the legacy single-stream layout). Fixed at open, so reading it
// without the lock is safe.
func (s *Store) shardCount() int { return s.shards }

// checkpointDue reports whether the committed size has outgrown the
// newest checkpoint by the configured interval.
func (s *Store) checkpointDue(size uint64) bool {
	return s.cfg.CheckpointEvery > 0 && size >= s.lastCkpt.Load()+s.cfg.CheckpointEvery
}

// streamCounts snapshots each stream's durable record count (nil for
// the single-stream layout, whose count is the global size). Callers
// hold the log lock, so no commit is in flight and the counts
// correspond exactly to the committed tree.
func (s *Store) streamCounts() []uint64 {
	if s.shards == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make([]uint64, len(s.streams))
	for i, st := range s.streams {
		counts[i] = st.count
	}
	return counts
}

// appendBatch durably frames the batch payloads and then commits sth to
// every trust anchor. shardIdx routes each payload to its host stream in
// a sharded store (ignored — may be nil — for the single stream).
// Ordering matters for crash consistency: records first (fsynced), tree
// head second — a crash in between leaves extra durable entries beyond
// the head, which recovery accepts and re-signs; the reverse order could
// leave a head signing entries that were never written. The anchor chain
// runs under the same lock, so a batch is acknowledged only once every
// anchor (persisted head, witness head, sealed counter) has recorded it.
// tr, when non-nil, receives the cycle's wal_sync and anchor_commit
// phase durations (the sequencer's trace record).
func (s *Store) appendBatch(payloads [][]byte, shardIdx []int, sth SignedTreeHead, tr *obs.CycleTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	// Enforce the recovery-side frame bound before anything is written:
	// an oversized record would commit durably but then fail every future
	// open with ErrStateCorrupt — a log that bricks itself. Refusing here
	// keeps the in-memory and on-disk state consistent (the caller rolls
	// the batch back) without latching the store failed.
	limit := maxRecordBytes
	if s.shards > 0 {
		limit = maxShardedEntryBytes
	}
	for _, p := range payloads {
		if len(p) > limit {
			return fmt.Errorf("%w: encoding is %d bytes, record limit %d", ErrEntryTooLarge, len(p), limit)
		}
	}
	phase := time.Now()
	var err error
	if s.shards > 0 {
		err = s.writeShardedRecords(payloads, shardIdx)
	} else {
		size := 0
		for _, p := range payloads {
			size += recordHeaderLen + len(p)
		}
		err = s.streams[0].write(s, len(payloads), size, func(i int, dst []byte) []byte {
			return appendRecord(dst, payloads[i])
		})
	}
	if err != nil {
		s.failed = fmt.Errorf("%w: %w", ErrStoreFailed, err)
		return s.failed
	}
	walSync := time.Since(phase)
	mPhaseWALSync.Observe(walSync)
	phase = time.Now()
	if err := s.commitHeadLocked(sth); err != nil {
		s.failed = fmt.Errorf("%w: %w", ErrStoreFailed, err)
		return s.failed
	}
	anchor := time.Since(phase)
	mPhaseAnchor.Observe(anchor)
	if tr != nil {
		tr.WALSync, tr.Anchor = walSync, anchor
	}
	s.size += uint64(len(payloads))
	return nil
}

// writeShardedRecords routes each payload to its host stream, stamped
// with its global index, and writes the touched streams concurrently —
// they are separate files, so their record writes and fsyncs overlap.
// Every stream's write must return before the head is persisted, which
// preserves the records-before-head crash ordering; a failure in any
// stream fails the batch (and the caller latches the store), because a
// partially landed cycle may no longer match the in-memory log.
func (s *Store) writeShardedRecords(payloads [][]byte, shardIdx []int) error {
	perShard := make([][]int, s.shards)
	for i := range payloads {
		shard := 0
		if i < len(shardIdx) {
			shard = shardIdx[i]
		}
		if shard < 0 || shard >= s.shards {
			return fmt.Errorf("translog: shard %d out of range (store has %d)", shard, s.shards)
		}
		perShard[shard] = append(perShard[shard], i)
	}
	var wg sync.WaitGroup
	errs := make([]error, s.shards)
	base := s.size
	for shard, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, idxs []int) {
			defer wg.Done()
			size := 0
			for _, i := range idxs {
				size += recordHeaderLen + shardIndexLen + len(payloads[i])
			}
			errs[shard] = s.streams[shard].write(s, len(idxs), size, func(k int, dst []byte) []byte {
				i := idxs[k]
				return appendIndexedRecord(dst, base+uint64(i), payloads[i])
			})
		}(shard, idxs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commitHead runs the anchor chain for a head committed outside a batch
// append (the open-time re-sign of a stale head).
func (s *Store) commitHead(sth SignedTreeHead) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitHeadLocked(sth)
}

// commitHeadLocked records sth with every trust anchor, in order.
// Callers hold s.mu.
func (s *Store) commitHeadLocked(sth SignedTreeHead) error {
	for i, a := range s.anchors {
		start := time.Now()
		if err := a.CommitHead(sth); err != nil {
			return fmt.Errorf("translog: %s anchor: %w", a.Name(), err)
		}
		s.anchorHist[i].Observe(time.Since(start))
	}
	return nil
}

// write appends n records to the stream's active segment, rotating at
// the size cap; frame(i, dst) appends record i's framed bytes to dst, so
// the cycle's records land in one buffer with no per-record allocation.
// Every touched segment is fsynced before the batch is acknowledged:
// rotation syncs the segment it retires, and the tail sync below covers
// the one left active. Callers hold s.mu (or, for the parallel sharded
// path, own the stream exclusively for the duration).
func (st *stream) write(s *Store, n, sizeHint int, frame func(i int, dst []byte) []byte) error {
	if cap(st.scratch) < sizeHint {
		st.scratch = make([]byte, 0, sizeHint)
	}
	pending := st.scratch[:0]
	defer func() { st.scratch = pending[:0] }()
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := st.active.Write(pending); err != nil {
			return fmt.Errorf("translog: writing segment: %w", err)
		}
		mWALBytes.Add(uint64(len(pending)))
		st.activeSize += int64(len(pending))
		pending = pending[:0]
		return nil
	}
	next := st.count
	for i := 0; i < n; i++ {
		if st.active == nil || st.activeSize+int64(len(pending)) >= s.cfg.SegmentMaxBytes {
			if err := flush(); err != nil {
				return err
			}
			if err := st.rotate(s, next); err != nil {
				return err
			}
		}
		pending = frame(i, pending)
		next++
	}
	if err := flush(); err != nil {
		return err
	}
	if !s.cfg.NoSync {
		if err := st.active.Sync(); err != nil {
			return fmt.Errorf("translog: fsync segment: %w", err)
		}
		mWALFsyncs.Inc()
	}
	st.count = next
	return nil
}

// rotate closes the stream's active segment and opens a fresh one whose
// first record will be stream ordinal first.
func (st *stream) rotate(s *Store, first uint64) error {
	if st.active != nil {
		if !s.cfg.NoSync {
			if err := st.active.Sync(); err != nil {
				return fmt.Errorf("translog: fsync segment: %w", err)
			}
			mWALFsyncs.Inc()
		}
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("translog: closing segment: %w", err)
		}
		st.active = nil
		mWALRolls.Inc()
	}
	path := filepath.Join(s.dir, st.name(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("translog: creating segment: %w", err)
	}
	st.active, st.activeSize = f, 0
	if !s.cfg.NoSync {
		if err := syncDir(s.dir); err != nil {
			f.Close()
			st.active = nil
			return err
		}
	}
	return nil
}

// persistSTHFile atomically replaces the durable tree head. It is the
// sthAnchor's persistence primitive.
func persistSTHFile(dir string, sth SignedTreeHead, noSync bool) error {
	data, err := json.Marshal(sth)
	if err != nil {
		return fmt.Errorf("translog: encoding tree head: %w", err)
	}
	return atomicWriteFile(filepath.Join(dir, sthFileName), data, !noSync)
}

// atomicWriteFile replaces path with data using the crash-safe write
// discipline shared by every durable file in a store (tmp + write +
// fsync + rename + dir sync, statedir.Dir.Write plus durability):
// readers see either the old contents or the new, a crash never
// surfaces a partial file, and with sync the replacement itself is
// durable before the call returns.
func atomicWriteFile(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("translog: writing %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("translog: writing %s: %w", filepath.Base(path), err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("translog: fsync %s: %w", filepath.Base(path), err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("translog: closing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("translog: replacing %s: %w", filepath.Base(path), err)
	}
	if sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// loadSTH reads the persisted tree head; ok=false when none exists yet
// (a store that has never been opened).
func loadSTH(dir string) (SignedTreeHead, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, sthFileName))
	if errors.Is(err, os.ErrNotExist) {
		return SignedTreeHead{}, false, nil
	}
	if err != nil {
		return SignedTreeHead{}, false, fmt.Errorf("translog: reading tree head: %w", err)
	}
	var sth SignedTreeHead
	if err := json.Unmarshal(data, &sth); err != nil {
		return SignedTreeHead{}, false, fmt.Errorf("%w: tree head undecodable: %v", ErrStateCorrupt, err)
	}
	return sth, true, nil
}

// Size returns the durably persisted entry count.
func (s *Store) Size() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close fsyncs and closes the active segment, closes the tile packs and
// releases any anchors holding resources. A closed store latches
// failed, so a stray later append errors instead of silently forking a
// new segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil {
		s.failed = fmt.Errorf("%w: store closed", ErrStoreFailed)
	}
	s.packMu.Lock()
	for _, f := range s.packs {
		if f != nil {
			f.Close()
		}
	}
	s.packsClosed = true // later cache reads miss, later writes fail
	s.packMu.Unlock()
	var err error
	for _, a := range s.anchors {
		if c, ok := a.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	for _, st := range s.streams {
		if st.active == nil {
			continue
		}
		f := st.active
		st.active = nil
		if !s.cfg.NoSync {
			if serr := f.Sync(); serr != nil {
				f.Close()
				if err == nil {
					err = fmt.Errorf("translog: fsync segment: %w", serr)
				}
				continue
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// syncDir fsyncs a directory so renames and file creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("translog: opening store dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("translog: fsync store dir: %w", err)
	}
	return nil
}
