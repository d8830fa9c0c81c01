package translog

import (
	"crypto"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Recovery: opening a durable log replays every segment, truncates a torn
// tail record, rebuilds the Merkle tree and serial index, and then hands
// the recovered state to the trust-anchor chain (anchor.go) for
// verification. The built-in sthAnchor checks the recomputed root
// against the durably persisted signed tree head — the local anchor of
// the same guarantee the witness provides remotely — and any configured
// extra anchors (witness head, enclave-sealed counter) check their own
// independently rooted memories, so a statedir restored from an old
// snapshot (rollback) or edited in place (tamper) is refused loudly by
// whichever anchor still remembers the newer history.
//
// A sharded store replays one segment stream per host slot and
// interleaves them back into the global order via the per-record global
// index. Each stream gets the same refusals the single stream gets —
// torn tails may only be at a stream's own end, interior damage is
// corruption — and the crash window widens in one understood way: a
// crash mid-cycle can land some streams' records and not others', so
// the records beyond the persisted head may have index gaps. Recovery
// keeps the longest contiguous prefix and treats everything past the
// first gap as the torn tail it is; the anchors see the prefix, so a
// "gap" that would cut into committed history is still refused as a
// rollback before anything is touched.

// recovered is the verified disk state handed from recovery to the Log.
type recovered struct {
	entries []Entry
	// payloads holds each entry's canonical encoding exactly as the WAL
	// replay produced it — the Log adopts these bytes directly, so
	// recovery never re-marshals what it already read and validated.
	payloads [][]byte
	// tree is the Merkle tree rebuilt over the recovered entries; the
	// Log adopts it directly instead of hashing everything twice.
	tree *tree
	// sth is the persisted head when it covered exactly the recovered
	// size; when the disk holds entries beyond the head (a crash between
	// the record fsync and the head replacement) sthStale is true and the
	// caller must sign a fresh head over the full recovered tree.
	sth      SignedTreeHead
	sthStale bool
	// shards is the layout found on disk (or configured for a fresh
	// store): 0 for the single stream, else the per-host stream count.
	shards int
	// tails describes where appends resume: one entry for the single
	// layout, shards entries otherwise.
	tails []streamTail
	// ckpt is the verified checkpoint the replay was based from (nil for
	// a full replay). With a checkpoint, entries/payloads hold only the
	// suffix — global ordinals [ckpt.size, size) — and tree is seeded
	// from the checkpoint's frozen subtree roots.
	ckpt *checkpoint
}

// size is the recovered global entry count: the checkpoint base plus
// the replayed suffix.
func (r *recovered) size() uint64 {
	if r.ckpt != nil {
		return r.ckpt.size + uint64(len(r.entries))
	}
	return uint64(len(r.entries))
}

// streamTail is one stream's resumption point.
type streamTail struct {
	// count is the number of records surviving in the stream.
	count uint64
	// tailFirst/tailClean locate the open tail segment and its intact
	// length; hasTail is false for a stream with no segment files.
	tailFirst uint64
	tailClean int64
	hasTail   bool
}

// trimOp is a deferred physical mutation of the store: recovery must not
// modify a store it is about to refuse (it is incident evidence), so
// torn-tail truncations and beyond-gap removals are collected and
// applied only after every anchor accepted the state.
type trimOp struct {
	path     string
	truncate int64 // truncate to this length...
	remove   bool  // ...or remove the file entirely
}

// applyTrims performs the deferred mutations durably: each truncated
// file is fsynced and the parent directory is fsynced once at the end
// (removals are only durable when the directory is). Without the syncs
// a crash right after recovery can resurrect the trimmed tail, and the
// next open re-discovers — and re-reports — torn state this one already
// repaired.
func applyTrims(dir string, trims []trimOp, noSync bool) error {
	for _, op := range trims {
		if op.remove {
			if err := os.Remove(op.path); err != nil {
				return fmt.Errorf("translog: removing uncommitted segment: %w", err)
			}
			continue
		}
		f, err := os.OpenFile(op.path, os.O_RDWR, 0o600)
		if err != nil {
			return fmt.Errorf("translog: truncating torn tail: %w", err)
		}
		if err := f.Truncate(op.truncate); err != nil {
			f.Close()
			return fmt.Errorf("translog: truncating torn tail: %w", err)
		}
		if !noSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("translog: syncing trimmed tail: %w", err)
			}
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("translog: closing trimmed tail: %w", err)
		}
	}
	if len(trims) > 0 && !noSync {
		return syncDir(dir)
	}
	return nil
}

// recoverDir replays the store directory — whichever layout it holds —
// and verifies it against the trust-anchor chain (the built-in sthAnchor
// first, then any extras).
func recoverDir(dir string, cfg StoreConfig, sthAnchor *sthAnchor, extra []TrustAnchor) (*recovered, error) {
	recoverStart := time.Now()
	if cfg.Shards > maxShardSlots {
		//lint:allow errtaxonomy config validation rejecting the open request, not a classification of on-disk state
		return nil, fmt.Errorf("translog: %d shards exceeds the %d-slot segment naming limit", cfg.Shards, maxShardSlots)
	}
	firsts, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(firsts) > 0 && len(shardFirsts) > 0 {
		return nil, fmt.Errorf("%w: store holds both single-stream and sharded segments", ErrStateCorrupt)
	}
	metaShards, haveMeta, err := loadShardCount(dir)
	if err != nil {
		return nil, err
	}
	// A verified checkpoint turns the replay into a suffix replay: the
	// cold prefix is summarized by its frozen subtree roots, and only
	// records at or past the checkpoint are decoded. loadCheckpoint
	// already classified every way the file can lie (ErrStateCorrupt /
	// ErrStateTampered / ErrStateRollback) — a bad checkpoint refuses
	// the open, it is never silently ignored.
	ckpt, err := loadCheckpoint(dir, sthAnchor.pub)
	if err != nil {
		return nil, err
	}
	var rec *recovered
	var trims []trimOp
	var segments int
	switch {
	case haveMeta:
		// The pinned count from store creation wins over whatever
		// cfg.Shards says today: the layout — and the host→stream
		// routing — is fixed for the store's lifetime.
		if len(firsts) > 0 {
			return nil, fmt.Errorf("%w: single-stream segments in a store pinned to %d shards", ErrStateCorrupt, metaShards)
		}
		if ckpt != nil && len(ckpt.streamCounts) != metaShards {
			return nil, fmt.Errorf("%w: checkpoint covers %d segment streams in a store pinned to %d shards",
				ErrStateCorrupt, len(ckpt.streamCounts), metaShards)
		}
		rec, trims, segments, err = recoverSharded(dir, metaShards, shardFirsts, ckpt)
	case len(shardFirsts) > 0 || (len(firsts) == 0 && cfg.Shards > 1 && ckpt == nil):
		nShards := cfg.Shards
		if nShards <= 1 {
			nShards = 2 // layout is sharded regardless of what cfg says now
		}
		for shard := range shardFirsts {
			if shard >= nShards {
				nShards = shard + 1
			}
		}
		if ckpt != nil && len(ckpt.streamCounts) != nShards {
			return nil, fmt.Errorf("%w: checkpoint covers %d segment streams but the store holds %d",
				ErrStateCorrupt, len(ckpt.streamCounts), nShards)
		}
		rec, trims, segments, err = recoverSharded(dir, nShards, shardFirsts, ckpt)
	default:
		if ckpt != nil && len(ckpt.streamCounts) != 0 {
			return nil, fmt.Errorf("%w: sharded checkpoint (%d streams) in a single-stream store",
				ErrStateCorrupt, len(ckpt.streamCounts))
		}
		rec, trims, segments, err = recoverSingle(dir, firsts, ckpt)
	}
	if err != nil {
		return nil, err
	}

	if rec.ckpt != nil {
		rec.tree = newTreeFromFrozen(rec.ckpt.size, rec.ckpt.blocks)
	} else {
		rec.tree = newTree()
	}
	for _, p := range rec.payloads {
		rec.tree.append(LeafHash(p))
	}
	size := rec.size()
	// Anchors only ever remember heads at or past the checkpoint — a
	// checkpoint is written only after its head was committed through
	// the whole chain — so rootAt below the checkpoint means the anchor's
	// own memory predates a checkpoint that could not exist without it.
	rootAt := func(n uint64) (Hash, error) {
		h, err := rec.tree.rootAt(n)
		if errors.Is(err, errColdRange) {
			return Hash{}, fmt.Errorf("%w: anchor remembers a head at size %d, below the checkpoint at %d",
				ErrStateTampered, n, rec.ckpt.size)
		}
		return h, err
	}
	state := &RecoveredState{Size: size, Segments: segments, rootAt: rootAt}
	if err := sthAnchor.CheckRecovery(state); err != nil {
		return nil, err
	}
	for _, a := range extra {
		if err := a.CheckRecovery(state); err != nil {
			return nil, err
		}
	}
	// Physical mutations only after every anchor accepted: trim the torn
	// material, and pin a freshly created sharded layout's stream count.
	if err := applyTrims(dir, trims, cfg.NoSync); err != nil {
		return nil, err
	}
	if rec.shards > 0 && !haveMeta {
		if err := saveShardCount(dir, rec.shards, cfg.NoSync); err != nil {
			return nil, err
		}
	}
	sth, have := sthAnchor.Persisted()
	rec.sth = sth
	rec.sthStale = !have || size != sth.Size
	mRecoverEntries.Add(uint64(len(rec.entries)))
	if rec.ckpt != nil {
		mRecoverSuffixEntries.Add(uint64(len(rec.entries)))
	}
	for _, op := range trims {
		if op.remove {
			mRecoverRemovedSegs.Inc()
		} else {
			mRecoverTornTails.Inc()
		}
	}
	mRecoverSeconds.Observe(time.Since(recoverStart))
	mRecoverLast.Mark()
	return rec, nil
}

// recoverSingle replays the legacy single-stream layout. With a
// checkpoint, records below it are skipped without decoding (they are
// summarized by the frozen subtree roots) and compaction may already
// have removed whole cold segments, so the oldest surviving segment
// need not start at zero — only at or below the checkpoint.
func recoverSingle(dir string, firsts []uint64, ckpt *checkpoint) (*recovered, []trimOp, int, error) {
	rec := &recovered{shards: 0, ckpt: ckpt}
	base := uint64(0)
	if ckpt != nil {
		base = ckpt.size
	}
	var trims []trimOp
	ordinal := base // global ordinal of the next record to read
	for i, first := range firsts {
		switch {
		case i == 0 && ckpt == nil && first != 0:
			return nil, nil, 0, fmt.Errorf("%w: segment %s starts at %d, want 0",
				ErrStateCorrupt, segmentName(first), first)
		case i == 0 && first > base:
			// Compaction only removes segments below a checkpoint that
			// was newer than them, so a WAL that resumes past the
			// checkpoint means checkpoint.bin was swapped for an older
			// one after the cold segments it summarized were removed.
			return nil, nil, 0, fmt.Errorf("%w: checkpoint covers %d entries but the oldest WAL segment starts at %d",
				ErrStateRollback, base, first)
		case i == 0:
			ordinal = first
		case first != ordinal:
			return nil, nil, 0, fmt.Errorf("%w: segment %s starts at %d, want %d",
				ErrStateCorrupt, segmentName(first), first, ordinal)
		}
		path := filepath.Join(dir, segmentName(first))
		payloads, clean, err := readSegment(path)
		last := i == len(firsts)-1
		switch {
		case err == nil:
		case errors.Is(err, errTornTail) && last:
			// A crash mid-append leaves a partial final record; cut it
			// (after verification) so appends resume on a frame boundary.
			trims = append(trims, trimOp{path: path, truncate: int64(clean)})
		case errors.Is(err, errTornTail):
			return nil, nil, 0, fmt.Errorf("%w: segment %s ends mid-record but is not the tail",
				ErrStateCorrupt, segmentName(first))
		default:
			return nil, nil, 0, err
		}
		for _, p := range payloads {
			if ordinal < base {
				ordinal++ // cold record, summarized by the checkpoint
				continue
			}
			e, err := unmarshalEntry(p)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%w: entry %d undecodable: %v", ErrStateCorrupt, ordinal, err)
			}
			rec.entries = append(rec.entries, e)
			rec.payloads = append(rec.payloads, p)
			ordinal++
		}
		if last {
			rec.tails = []streamTail{{
				count: ordinal, tailFirst: first, tailClean: int64(clean), hasTail: true,
			}}
		}
	}
	if rec.tails == nil {
		rec.tails = []streamTail{{count: base}}
	}
	return rec, trims, len(firsts), nil
}

// shardRecord is one decoded sharded record, located precisely enough to
// trim everything from it onward out of its stream.
type shardRecord struct {
	index   uint64
	entry   Entry
	payload []byte // the entry's canonical encoding as replayed
	shard   int
	// seg is the position of the record's segment in the shard's sorted
	// segment list; off is the record's byte offset within that segment.
	seg int
	off int64
}

// recoverSharded replays every per-host stream and interleaves the
// records back into the global order. nShards is the store's pinned (or
// derived) stream count. With a checkpoint, each stream skips records
// whose global index is below it (the checkpoint's per-stream counts
// say how many of each stream's ordinals are cold, so a compacted
// stream may resume — or be entirely empty — past ordinal zero).
func recoverSharded(dir string, nShards int, shardFirsts map[int][]uint64, ckpt *checkpoint) (*recovered, []trimOp, int, error) {
	for shard := range shardFirsts {
		if shard >= nShards {
			return nil, nil, 0, fmt.Errorf("%w: segment stream %d in a store with %d shard slots",
				ErrStateCorrupt, shard, nShards)
		}
	}
	base := uint64(0)
	bc := make([]uint64, nShards) // per-stream cold record counts
	if ckpt != nil {
		base = ckpt.size
		copy(bc, ckpt.streamCounts)
	}

	var all []shardRecord
	var trims []trimOp
	segments := 0
	// counts/lastSeg/lastClean track each stream's pre-trim shape.
	counts := make([]uint64, nShards)
	segPaths := make([][]string, nShards)
	tailClean := make([]int64, nShards)
	for shard := 0; shard < nShards; shard++ {
		counts[shard] = bc[shard] // fully compacted (or untouched) stream
		firsts := shardFirsts[shard]
		segments += len(firsts)
		prevIndex := uint64(0)
		haveRecord := false
		for i, first := range firsts {
			switch {
			case i == 0 && ckpt == nil && first != 0:
				return nil, nil, 0, fmt.Errorf("%w: segment %s starts at stream ordinal %d, want 0",
					ErrStateCorrupt, shardSegmentName(shard, first), first)
			case i == 0 && first > bc[shard]:
				return nil, nil, 0, fmt.Errorf("%w: checkpoint covers %d records of stream %d but its oldest segment starts at %d",
					ErrStateRollback, bc[shard], shard, first)
			case i == 0:
				counts[shard] = first
			case first != counts[shard]:
				return nil, nil, 0, fmt.Errorf("%w: segment %s starts at stream ordinal %d, want %d",
					ErrStateCorrupt, shardSegmentName(shard, first), first, counts[shard])
			}
			path := filepath.Join(dir, shardSegmentName(shard, first))
			segPaths[shard] = append(segPaths[shard], path)
			payloads, clean, err := readSegment(path)
			last := i == len(firsts)-1
			switch {
			case err == nil:
			case errors.Is(err, errTornTail) && last:
				trims = append(trims, trimOp{path: path, truncate: int64(clean)})
			case errors.Is(err, errTornTail):
				return nil, nil, 0, fmt.Errorf("%w: segment %s ends mid-record but is not the stream tail",
					ErrStateCorrupt, shardSegmentName(shard, first))
			default:
				return nil, nil, 0, err
			}
			off := int64(0)
			for _, p := range payloads {
				index, body, err := splitIndexedRecord(p)
				if err != nil {
					return nil, nil, 0, err
				}
				if haveRecord && index <= prevIndex {
					return nil, nil, 0, fmt.Errorf("%w: stream %d global index %d not increasing (previous %d)",
						ErrStateCorrupt, shard, index, prevIndex)
				}
				prevIndex, haveRecord = index, true
				if index >= base {
					e, uerr := unmarshalEntry(body)
					if uerr != nil {
						return nil, nil, 0, fmt.Errorf("%w: entry %d undecodable: %v", ErrStateCorrupt, index, uerr)
					}
					all = append(all, shardRecord{index: index, entry: e, payload: body, shard: shard, seg: i, off: off})
				}
				off += recordHeaderLen + int64(len(p))
				counts[shard]++
			}
			if last {
				tailClean[shard] = int64(clean)
			}
		}
	}

	// Interleave: sort by global index, refuse duplicates, and keep the
	// longest contiguous prefix from zero. Records past the first gap can
	// only be the torn remains of the last uncommitted cycle — per-stream
	// indices are increasing, so they form a suffix of each stream — and
	// are trimmed like any other torn tail once the anchors accept. If
	// the gap cut into committed history, the prefix is shorter than the
	// persisted head and the anchors refuse before any trim runs.
	sort.Slice(all, func(i, j int) bool { return all[i].index < all[j].index })
	for i := 1; i < len(all); i++ {
		if all[i].index == all[i-1].index {
			return nil, nil, 0, fmt.Errorf("%w: global index %d appears in stream %d and stream %d",
				ErrStateCorrupt, all[i].index, all[i-1].shard, all[i].shard)
		}
	}
	prefix := len(all)
	for i, r := range all {
		if r.index != base+uint64(i) {
			prefix = i
			break
		}
	}

	rec := &recovered{shards: nShards, ckpt: ckpt}
	for _, r := range all[:prefix] {
		rec.entries = append(rec.entries, r.entry)
		rec.payloads = append(rec.payloads, r.payload)
	}
	if prefix < len(all) {
		// Plan the per-stream cuts: for each stream, everything from its
		// first beyond-prefix record onward goes — truncate that record's
		// segment at its offset, drop the stream's later segments.
		cut := make(map[int]shardRecord)
		dropped := make(map[int]uint64)
		for _, r := range all[prefix:] {
			if c, ok := cut[r.shard]; !ok || r.index < c.index {
				cut[r.shard] = r
			}
			dropped[r.shard]++
		}
		for shard, c := range cut {
			// The cut replaces any torn-tail trim already planned for the
			// stream's last segment: the torn bytes sit after the cut.
			kept := trims[:0]
			for _, op := range trims {
				if len(segPaths[shard]) > 0 && op.path == segPaths[shard][len(segPaths[shard])-1] {
					continue
				}
				kept = append(kept, op)
			}
			trims = kept
			trims = append(trims, trimOp{path: segPaths[shard][c.seg], truncate: c.off})
			for i := c.seg + 1; i < len(segPaths[shard]); i++ {
				trims = append(trims, trimOp{path: segPaths[shard][i], remove: true})
			}
			counts[shard] -= dropped[shard]
			segPaths[shard] = segPaths[shard][:c.seg+1]
			tailClean[shard] = c.off
		}
	}

	rec.tails = make([]streamTail, nShards)
	for shard := 0; shard < nShards; shard++ {
		tail := streamTail{count: counts[shard]}
		if n := len(segPaths[shard]); n > 0 {
			tail.hasTail = true
			_, first, _ := parseShardSegmentName(filepath.Base(segPaths[shard][n-1]))
			tail.tailFirst = first
			tail.tailClean = tailClean[shard]
		}
		rec.tails[shard] = tail
	}
	return rec, trims, segments, nil
}

// OpenDurableLog opens (creating if needed) a write-ahead durable log in
// dir, signed by signer. It replays and verifies the existing disk state
// first — see the package recovery notes — and refuses to open a rolled
// back (ErrStateRollback), rewritten (ErrStateTampered) or damaged
// (ErrStateCorrupt) store; extra trust anchors configured via
// cfg.Anchors add their own refusals (a witness anchor re-raises
// ErrStateRollback from its separate statedir, the sealed-counter
// anchor raises ErrSealedRollback even when every file on disk was
// rewound consistently). Every committed batch is durably persisted
// (records fsynced, latest signed tree head atomically replaced, every
// anchor updated) before AppendBatch returns, so the ShardedAppender's
// merged cycles amortise the fsync the same way they amortise the
// tree-head signature. With cfg.Shards > 1 the WAL is split into
// per-host segment streams — see StoreConfig.Shards. Close the
// returned log to release the store and anchors.
func OpenDurableLog(signer crypto.Signer, dir string, cfg StoreConfig) (*Log, error) {
	pub, ok := signer.Public().(*ecdsa.PublicKey)
	if !ok {
		//lint:allow errtaxonomy caller-argument validation before any disk state is read; no taxonomy applies
		return nil, fmt.Errorf("translog: signer key type %T unsupported for durable log", signer.Public())
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("translog: creating store dir: %w", err)
	}
	// Until a Store owns them, refusing or failing the open must still
	// release anchors holding resources (a refused recovery is this
	// feature's main path — it must not leak the sealed anchor's
	// enclave).
	closeAnchors := func() {
		for _, a := range cfg.Anchors {
			if c, ok := a.(io.Closer); ok {
				c.Close()
			}
		}
	}
	sthAnchor := newSTHAnchor(dir, pub)
	sthAnchor.noSync = cfg.NoSync
	rec, err := recoverDir(dir, cfg, sthAnchor, cfg.Anchors)
	if err != nil {
		closeAnchors()
		return nil, err
	}
	anchors := append([]TrustAnchor{sthAnchor}, cfg.Anchors...)
	store, err := openStoreDir(dir, cfg, anchors, rec)
	if err != nil {
		closeAnchors()
		return nil, err
	}

	l := &Log{
		signer:   signer,
		tree:     rec.tree,
		issuance: make(map[string]uint64),
		revoked:  make(map[string]bool),
	}
	base := uint64(0)
	if rec.ckpt != nil {
		// The cold prefix stays on disk: the serial indexes come from the
		// checkpoint's (signature-covered) snapshot, the arena starts at
		// the checkpoint base, and frozenRoot pins what a later hydration
		// of the archived entries must reproduce.
		base = rec.ckpt.size
		l.frozenRoot = rec.ckpt.sth.RootHash
		l.entries.base = base
		for k, v := range rec.ckpt.issuance {
			l.issuance[k] = v
		}
		for k := range rec.ckpt.revoked {
			l.revoked[k] = true
		}
		store.lastCkpt.Store(base)
	}
	for i, e := range rec.entries {
		l.indexEntry(e, base+uint64(i))
	}
	// The arena adopts the replayed canonical bytes — the same bytes the
	// recovery pass hashed into the rebuilt tree.
	l.entries.add(rec.payloads)
	size := rec.size()
	sth := rec.sth
	if rec.sthStale {
		// Fresh store, or durable entries past the persisted head: sign
		// a head covering everything recovered.
		root, err := l.tree.rootAt(size)
		if err != nil {
			store.Close()
			return nil, err
		}
		sth, err = l.signHead(size, root)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	// Re-commit the current head through the whole anchor chain even
	// when it was not stale: a crash inside a previous commit can leave
	// a later anchor (witness head, sealed counter) one batch behind
	// sth.json, and a lagging sealed pin is a rollback window — a
	// snapshot of the lagging state would pass every anchor. After any
	// successful open, every anchor pins exactly the recovered head.
	if err := store.commitHead(sth); err != nil {
		store.Close()
		return nil, err
	}
	l.sth = sth
	l.store = store
	l.committed.Store(size)
	// Resume tile publication where the previous incarnation stopped:
	// the watermark keeps a reopen from re-deriving (and re-writing)
	// thousands of byte-identical tiles, and from hydrating the cold
	// prefix just to cover tiles that are already on disk (a mark
	// without the level-0 pack reads as 0, see loadTileMark).
	l.tileMark.Store(store.loadTileMark())
	if l.tilesDue(size) && l.tileBusy.CompareAndSwap(false, true) {
		l.tileWG.Add(1)
		go l.publishTilesBG()
	}
	if rec.ckpt != nil && cfg.CheckpointEvery > 0 {
		// Finish whatever compaction a crash interrupted: records the
		// checkpoint already summarizes may still sit in cold WAL
		// segments. Off the open path; Close waits it out.
		if l.ckptBusy.CompareAndSwap(false, true) {
			l.ckptWG.Add(1)
			go func() {
				defer l.ckptWG.Done()
				defer l.ckptBusy.Store(false)
				_ = l.store.compact(l.store.lastCkpt.Load())
			}()
		}
	}
	return l, nil
}
