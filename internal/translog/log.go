package translog

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/obs"
)

// Errors.
var (
	ErrNotLogged  = errors.New("translog: no log entry for credential") //lint:allow unusedexport lookup error contract of exported Log methods; errors.Is target
	ErrBadSTH     = errors.New("translog: tree head signature invalid") //lint:allow unusedexport verification error contract of exported Log/Client methods; errors.Is target
	ErrLogRevoked = errors.New("translog: credential revoked in log")
	ErrIndexRange = errors.New("translog: entry index out of range") //lint:allow unusedexport proof-request error contract of exported Log methods; errors.Is target
	ErrClosedLog  = errors.New("translog: appender closed")          //lint:allow unusedexport append error contract of exported ShardedAppender methods; errors.Is target
)

// SignedTreeHead is the log's signed commitment to its state at one size:
// whoever holds two of these can demand a consistency proof between them.
type SignedTreeHead struct {
	Size      uint64 `json:"size"`
	RootHash  Hash   `json:"root_hash"`
	Timestamp int64  `json:"timestamp"` // Unix milliseconds
	// Signature is an ASN.1 ECDSA signature by the log key (the VM's CA
	// key) over the canonical tree-head encoding.
	Signature []byte `json:"signature"`
}

// sthSigPrefix domain-separates tree-head signatures from every other use
// of the CA key.
const sthSigPrefix = "vnfguard-translog-sth-v1"

// entryArena is the Log's committed-entry storage: the canonical
// encodings concatenated in one byte arena plus a start-offset index.
// Entries decode on read. Compared to a []Entry, the arena is
// pointer-free — a multi-million-entry log no longer hands the garbage
// collector millions of string headers to scan on every cycle, which
// directly feeds the append throughput the sharded sequencer is built
// for — and it holds the exact bytes the tree hashed, so a decode can
// never disagree with the leaf.
type entryArena struct {
	// base is the global index of the first resident entry: a
	// checkpointed open adopts only the WAL suffix, and indices below
	// base stay cold until a read forces hydration (Log.hydrate), which
	// splices the archived prefix back in and zeroes base.
	base uint64
	data []byte
	offs []uint64
}

// count returns the number of stored entries (cold prefix included).
func (a *entryArena) count() uint64 { return a.base + uint64(len(a.offs)) }

// add appends a batch of canonical encodings (copying them out of the
// caller's buffers), growing the arena once for the whole batch;
// slices.Grow keeps the growth amortised for one-entry batches.
func (a *entryArena) add(payloads [][]byte) {
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	a.data = slices.Grow(a.data, size)
	a.offs = slices.Grow(a.offs, len(payloads))
	for _, p := range payloads {
		a.offs = append(a.offs, uint64(len(a.data)))
		a.data = append(a.data, p...)
	}
}

// payload returns the stored canonical encoding of entry i (callers
// have checked base ≤ i < count).
func (a *entryArena) payload(i uint64) []byte {
	i -= a.base
	end := uint64(len(a.data))
	if i+1 < uint64(len(a.offs)) {
		end = a.offs[i+1]
	}
	return a.data[a.offs[i]:end]
}

// at decodes entry i. The arena only ever holds encodings produced by
// Entry.Marshal or validated by recovery, so a decode failure is a
// programming error, not a runtime condition.
func (a *entryArena) at(i uint64) Entry {
	e, err := unmarshalEntry(a.payload(i))
	if err != nil {
		panic("translog: stored entry undecodable: " + err.Error())
	}
	return e
}

// truncate discards entries from global index n on — the rollback of a
// failed commit (always within the resident suffix: commits only ever
// grow past base).
func (a *entryArena) truncate(n uint64) {
	if n >= a.count() {
		return
	}
	n -= a.base
	a.data = a.data[:a.offs[n]]
	a.offs = a.offs[:n]
}

// splice prepends the hydrated cold payloads (global indices
// [0, base)) and makes the arena fully resident.
func (a *entryArena) splice(cold [][]byte) {
	all := slices.Clip(cold)
	for i := a.base; i < a.count(); i++ {
		all = append(all, a.payload(i))
	}
	*a = entryArena{}
	a.add(all)
}

// signingDigest is the SHA-256 the STH signature covers.
func (sth SignedTreeHead) signingDigest() [sha256.Size]byte {
	buf := make([]byte, 0, len(sthSigPrefix)+8+sha256.Size+8)
	buf = append(buf, sthSigPrefix...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], sth.Size)
	buf = append(buf, u64[:]...)
	buf = append(buf, sth.RootHash[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(sth.Timestamp))
	buf = append(buf, u64[:]...)
	return sha256.Sum256(buf)
}

// Verify checks the tree-head signature against the log's public key.
func (sth SignedTreeHead) Verify(pub *ecdsa.PublicKey) error {
	digest := sth.signingDigest()
	if !ecdsa.VerifyASN1(pub, digest[:], sth.Signature) {
		return ErrBadSTH
	}
	return nil
}

// Log is the append-only transparency log. All mutation is funnelled
// through commit, which recomputes the root and signs a fresh tree head
// once per batch — the cost that the batched appender amortises.
type Log struct {
	signer crypto.Signer

	// store, when non-nil, durably persists every committed batch before
	// it becomes visible (see OpenDurableLog). NewLog leaves it nil: a
	// purely in-memory log.
	store *Store

	mu      sync.RWMutex
	entries entryArena
	tree    *tree
	sth     SignedTreeHead
	// issuance maps a credential serial to the index of its latest
	// issuance entry (enroll or provision), maintained on commit exactly
	// like revoked — so a proof lookup is one map read plus the audit
	// path, never a scan over the serial's history.
	issuance map[string]uint64
	// revoked marks serials with an EntryRevoke in the log.
	revoked map[string]bool
	// shardScratch is the reusable host→shard routing buffer for sharded
	// stores, guarded by mu like every commit-path structure.
	shardScratch []int
	// shardStreams/shardIdx, when enabled (EnableShardStreams), maintain
	// the per-shard view of the committed sequence: shardIdx[s] lists the
	// global indices of shard s's entries in commit order — what the
	// partitioned witness audit reads so a witness assigned shard s never
	// scans the other shards' entries. Guarded by mu.
	shardStreams int
	shardIdx     [][]uint64

	// frozenRoot is the checkpoint's root over the cold prefix — what a
	// lazy hydration of the archived entries must reproduce
	// (ErrStateTampered otherwise). Only meaningful while entries.base
	// is non-zero.
	frozenRoot Hash
	// hydrateMu single-flights cold-prefix hydration.
	hydrateMu sync.Mutex
	// ckptMu serialises checkpoint writes (the background writer against
	// explicit Checkpoint calls).
	ckptMu sync.Mutex
	// ckptBusy/ckptWG coordinate the background checkpoint goroutine:
	// at most one in flight, and Close waits it out before tearing the
	// store down.
	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup

	// committed is the size covered by the latest acknowledged commit —
	// what tile serving may expose. An atomic, not l.mu: the tile read
	// path must never wait on a commit holding the lock across an fsync.
	committed atomic.Uint64
	// tileMark is the committed size the background tile publisher has
	// covered (mirrored in the statedir tiles/published file).
	tileMark atomic.Uint64
	// tileBusy/tileWG coordinate the background tile publisher exactly
	// as ckptBusy/ckptWG do the checkpoint writer.
	tileBusy atomic.Bool
	tileWG   sync.WaitGroup
	// tileWriteMu serialises writers of the statedir tile cache: an
	// explicit PublishTiles, the background publisher and the Tile
	// write-through would otherwise race over one file's temp name.
	tileWriteMu sync.Mutex
}

// NewLog creates a log whose tree heads are signed by signer (the
// Verification Manager passes its CA key). The empty tree head is signed
// immediately so monitors can anchor from size zero.
func NewLog(signer crypto.Signer) (*Log, error) {
	l := &Log{
		signer:   signer,
		tree:     newTree(),
		issuance: make(map[string]uint64),
		revoked:  make(map[string]bool),
	}
	sth, err := l.signHead(0, emptyRoot())
	if err != nil {
		return nil, err
	}
	l.sth = sth
	return l, nil
}

func (l *Log) signHead(size uint64, root Hash) (SignedTreeHead, error) {
	sth := SignedTreeHead{Size: size, RootHash: root, Timestamp: time.Now().UnixMilli()}
	digest := sth.signingDigest()
	sig, err := l.signer.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		return SignedTreeHead{}, fmt.Errorf("translog: signing tree head: %w", err)
	}
	sth.Signature = sig
	return sth, nil
}

// Append commits one entry immediately (one root recomputation and one
// tree-head signature) and returns its index. Hot paths should prefer a
// ShardedAppender, which batches these costs.
func (l *Log) Append(e Entry) (uint64, error) {
	indices, err := l.AppendBatch([]Entry{e})
	if err != nil {
		return 0, err
	}
	return indices[0], nil
}

// AppendBatch commits a batch of entries under a single root recomputation
// and tree-head signature, returning their indices.
func (l *Log) AppendBatch(batch []Entry) ([]uint64, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	payloads, hashes := prepareEntries(batch, 1)
	first, err := l.appendPrepared(batch, payloads, hashes, nil)
	if err != nil {
		return nil, err
	}
	indices := make([]uint64, len(batch))
	for i := range indices {
		indices[i] = first + uint64(i)
	}
	return indices, nil
}

// appendPrepared commits entries whose canonical encodings and leaf
// hashes were computed by the caller — the merging sequencer prepares
// its large merged cycles on every core before funnelling them through
// the log lock here. Returns the first committed index; the batch
// occupies [first, first+len(batch)). tr is the sequencer's per-cycle
// trace (ordinary batches pass nil); the phase histograms are observed
// either way.
func (l *Log) appendPrepared(batch []Entry, payloads [][]byte, hashes []Hash, tr *obs.CycleTrace) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.entries.count()
	l.entries.add(payloads)
	phase := time.Now()
	size := l.tree.appendParallel(hashes, prepareWorkers())
	// The commit must be atomic: a failure after the tree grew would
	// leave entries that a later head signs over but the serial indexes
	// never saw — so roll the tree and entry list back on any error.
	rollback := func() {
		l.entries.truncate(first)
		l.tree.truncate(first)
	}
	root, err := l.tree.rootAt(size)
	if err != nil {
		rollback()
		return 0, err
	}
	merkle := time.Since(phase)
	mPhaseMerkle.Observe(merkle)
	phase = time.Now()
	sth, err := l.signHead(size, root)
	if err != nil {
		rollback()
		return 0, err
	}
	sign := time.Since(phase)
	mPhaseSign.Observe(sign)
	if tr != nil {
		tr.TreeHash, tr.Sign = merkle, sign
	}
	if l.store != nil {
		// A sharded store routes each record to its host's segment
		// stream; the global index travels inside the record, assigned
		// here under the same lock that orders the commits. The scratch
		// is protected by that lock too.
		var shardIdx []int
		if n := l.store.shardCount(); n > 1 {
			if cap(l.shardScratch) < len(batch) {
				l.shardScratch = make([]int, len(batch))
			}
			shardIdx = l.shardScratch[:len(batch)]
			for i, e := range batch {
				shardIdx[i] = ShardOf(e.Host, n)
			}
		}
		// Durability before visibility: the batch's records hit disk
		// (fsynced) and the new head is atomically persisted before any
		// reader can obtain a proof against it. A failed persist rolls
		// the in-memory state back and latches the store failed, so the
		// log never acknowledges an entry the disk may not hold.
		if err := l.store.appendBatch(payloads, shardIdx, sth, tr); err != nil {
			rollback()
			return 0, err
		}
	}
	l.sth = sth
	l.committed.Store(size)
	for i, e := range batch {
		l.indexEntry(e, first+uint64(i))
	}
	mCommits.Inc()
	mAppendedEntries.Add(uint64(len(batch)))
	mLastCommit.Mark()
	// Checkpoint trigger: the batch is committed through the whole
	// anchor chain, so this head is one every anchor will remember —
	// exactly what a checkpoint may cover. The writer runs off the
	// commit path; at most one in flight.
	if l.store != nil && l.store.checkpointDue(size) && l.ckptBusy.CompareAndSwap(false, true) {
		l.ckptWG.Add(1)
		go l.checkpointAndCompact()
	}
	// Tile publication trigger, same off-commit-path shape: once a
	// commit completes a fresh full tile, persist it so tile serving is
	// a file read by the time caches ask.
	if l.store != nil && l.tilesDue(size) && l.tileBusy.CompareAndSwap(false, true) {
		l.tileWG.Add(1)
		go l.publishTilesBG()
	}
	return first, nil
}

// checkpointAndCompact is the background checkpoint writer spawned
// after a commit crosses the configured interval: persist a checkpoint
// for the committed head, then fold the now-summarized cold prefix
// into archive files. Best-effort by design — on any error the WAL
// remains authoritative and the next interval retries.
func (l *Log) checkpointAndCompact() {
	defer l.ckptWG.Done()
	defer l.ckptBusy.Store(false)
	if err := l.Checkpoint(); err != nil {
		return
	}
	_ = l.store.compact(l.store.lastCkpt.Load())
}

// Checkpoint synchronously writes a durable checkpoint covering the
// current committed head and compacts the cold prefix it summarizes
// into archive files. The automatic path (StoreConfig.CheckpointEvery)
// runs this in the background after commits; the method is exposed for
// operator tooling and deterministic tests.
func (l *Log) Checkpoint() error {
	if l.store == nil {
		return fmt.Errorf("translog: checkpointing an in-memory log")
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.RLock()
	sth := l.sth
	size := l.entries.count()
	blocks, err := l.tree.blocks(size)
	if err != nil {
		l.mu.RUnlock()
		return err
	}
	issuance := make(map[string]uint64, len(l.issuance))
	for k, v := range l.issuance {
		issuance[k] = v
	}
	revoked := make(map[string]bool, len(l.revoked))
	for k := range l.revoked {
		revoked[k] = true
	}
	streamCounts := l.store.streamCounts()
	l.mu.RUnlock()
	if size == 0 || size == l.store.lastCkpt.Load() {
		return nil // nothing new to summarize
	}
	ck := &checkpoint{size: size, sth: sth, blocks: blocks,
		streamCounts: streamCounts, issuance: issuance, revoked: revoked}
	n, err := writeCheckpointFile(l.store.dir, ck, l.signer, l.store.cfg.NoSync)
	if err != nil {
		return err
	}
	l.store.lastCkpt.Store(size)
	mCkptBytes.Set(int64(n))
	mCkptLast.Mark()
	return l.store.compact(size)
}

// hydrate loads the compacted cold prefix back into memory: the
// archives (plus any cold records still in WAL segments) are read, the
// prefix tree is rebuilt and must reproduce the checkpoint root the
// anchors verified at open, and the tree and entry arena are spliced
// back to full residency. Single-flighted; concurrent cold readers
// block on hydrateMu and find the work already done.
func (l *Log) hydrate() error {
	l.hydrateMu.Lock()
	defer l.hydrateMu.Unlock()
	l.mu.RLock()
	base := l.entries.base
	frozen := l.frozenRoot
	store := l.store
	l.mu.RUnlock()
	if base == 0 {
		return nil // already resident
	}
	payloads, hashes, err := store.loadCold(base)
	if err != nil {
		return err
	}
	pre := newTree()
	pre.appendParallel(hashes, prepareWorkers())
	root, err := pre.rootAt(base)
	if err != nil {
		return err
	}
	if root != frozen {
		return fmt.Errorf("%w: hydrated cold prefix hashes to a different root than the checkpoint covers",
			ErrStateTampered)
	}
	l.mu.Lock()
	l.tree.splice(pre.levels)
	l.entries.splice(payloads)
	l.mu.Unlock()
	return nil
}

// withHydration runs fn, hydrating the cold prefix and retrying once
// when it reports a cold range. After a successful hydration the tree
// and arena are fully resident, so the retry cannot see errColdRange
// again.
func (l *Log) withHydration(fn func() error) error {
	err := fn()
	if !errors.Is(err, errColdRange) {
		return err
	}
	if herr := l.hydrate(); herr != nil {
		return herr
	}
	return fn()
}

// hydrated is withHydration for a read that returns a value.
func hydrated[T any](l *Log, fn func() (T, error)) (T, error) {
	var v T
	err := l.withHydration(func() error {
		var ferr error
		v, ferr = fn()
		return ferr
	})
	return v, err
}

// indexEntry maintains the serial-keyed lookup maps for one committed
// entry. Callers hold l.mu (or own the log exclusively during recovery).
func (l *Log) indexEntry(e Entry, idx uint64) {
	if l.shardStreams > 0 {
		s := ShardOf(e.Host, l.shardStreams)
		l.shardIdx[s] = append(l.shardIdx[s], idx)
	}
	if e.Serial == "" {
		return
	}
	switch e.Type {
	case EntryEnroll, EntryProvision:
		l.issuance[e.Serial] = idx
	case EntryRevoke:
		l.revoked[e.Serial] = true
	}
}

// Durable reports whether the log persists its state (OpenDurableLog).
func (l *Log) Durable() bool { return l.store != nil }

// StoreShards reports the durable store's per-host stream count — the
// count pinned at store creation, whatever StoreConfig.Shards said at
// this open. Zero for in-memory and single-stream logs.
func (l *Log) StoreShards() int {
	if l.store == nil {
		return 0
	}
	return l.store.shardCount()
}

// Close releases the durable store, fsyncing the tail segment. It is a
// no-op for in-memory logs and is safe to call more than once.
func (l *Log) Close() error {
	// Wait out any in-flight background checkpoint or tile publisher
	// before locking (the writers snapshot under the read lock / the
	// tree's own lock). A commit racing this Close may spawn a fresh
	// writer after the Wait, so re-check under the lock — new writers
	// can only be spawned by commits, which hold it.
	for {
		l.ckptWG.Wait()
		l.tileWG.Wait()
		l.mu.Lock()
		if !l.ckptBusy.Load() && !l.tileBusy.Load() {
			break
		}
		l.mu.Unlock()
	}
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	return l.store.Close()
}

// STH returns the latest signed tree head.
func (l *Log) STH() SignedTreeHead {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sth
}

// Size returns the committed entry count.
func (l *Log) Size() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.entries.count()
}

// Entry returns the committed entry at index.
func (l *Log) Entry(index uint64) (Entry, error) {
	return hydrated(l, func() (Entry, error) {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if index >= l.entries.count() {
			return Entry{}, ErrIndexRange
		}
		if index < l.entries.base {
			return Entry{}, errColdRange
		}
		return l.entries.at(index), nil
	})
}

// Entries returns committed entries in [start, start+count), clamped to
// the log size.
func (l *Log) Entries(start, count uint64) []Entry {
	out, _ := hydrated(l, func() ([]Entry, error) {
		l.mu.RLock()
		defer l.mu.RUnlock()
		n := l.entries.count()
		if start >= n || count == 0 {
			return nil, nil
		}
		if start < l.entries.base {
			return nil, errColdRange
		}
		end := start + min(count, n-start)
		out := make([]Entry, 0, end-start)
		for i := start; i < end; i++ {
			out = append(out, l.entries.at(i))
		}
		return out, nil
	})
	return out
}

// InclusionProof returns the audit path for the entry at index in the
// tree of the given size.
//
// Proofs deliberately do not take the log lock: the tree is append-only
// and guards its own node levels, and every node below a committed size
// is immutable once written — so proof reads over published heads no
// longer contend with the sequencer's write lock, which a committing
// batch holds across its WAL fsync. A proof touching hashes that were
// compacted below the checkpoint triggers hydration and retries.
func (l *Log) InclusionProof(index, size uint64) ([]Hash, error) {
	return hydrated(l, func() ([]Hash, error) { return l.tree.inclusionProof(index, size) })
}

// ConsistencyProof proves the tree at size first is a prefix of the tree
// at size second. Lock-free against the log lock like InclusionProof.
func (l *Log) ConsistencyProof(first, second uint64) ([]Hash, error) {
	if first == 0 {
		return nil, nil
	}
	return hydrated(l, func() ([]Hash, error) { return l.tree.consistencyProof(first, second) })
}

// RootAt recomputes the root at a historical size (used by tests and the
// example walkthrough; auditors use signed tree heads instead).
func (l *Log) RootAt(size uint64) (Hash, error) {
	return hydrated(l, func() (Hash, error) { return l.tree.rootAt(size) })
}

// ProofBundle packages everything a relying party needs to check that one
// entry is committed in the log: the entry, its index, the audit path and
// the signed tree head the path leads to.
type ProofBundle struct {
	Index uint64         `json:"index"`
	Entry Entry          `json:"entry"`
	Proof []Hash         `json:"proof"`
	STH   SignedTreeHead `json:"sth"`
}

// Verify checks the bundle end to end: tree-head signature, then the
// inclusion of the entry's leaf under that head.
func (pb *ProofBundle) Verify(pub *ecdsa.PublicKey) error {
	if err := pb.STH.Verify(pub); err != nil {
		return err
	}
	return pb.verifyInclusion()
}

// verifyInclusion checks the entry's leaf against the bundle's head
// without checking the head's signature.
func (pb *ProofBundle) verifyInclusion() error {
	return VerifyInclusion(LeafHash(pb.Entry.Marshal()), pb.Index, pb.STH.Size, pb.Proof, pb.STH.RootHash)
}

// ProveSerial returns a proof bundle for the latest issuance entry
// (enroll or provision) carrying the given credential serial, against the
// current tree head. ErrNotLogged when the serial never appears;
// ErrLogRevoked when the log records its revocation. The lookup is one
// map read — the issuance index is maintained on commit (and rebuilt on
// recovery) rather than found by scanning entries, so the controller's
// per-handshake cost does not grow with the log.
func (l *Log) ProveSerial(serial string) (*ProofBundle, error) {
	pb, err := l.lookupBundle(serial)
	if err != nil {
		return nil, err
	}
	// The audit path is computed against the snapshotted head without
	// re-taking the log lock (see InclusionProof).
	if pb.Proof, err = l.InclusionProof(pb.Index, pb.STH.Size); err != nil {
		return nil, err
	}
	return pb, nil
}

// lookupBundle resolves a serial to its proof bundle minus the audit
// path — what a tile-assembling client needs: it computes the proof
// itself from cached tiles, so making the server hash one out would
// defeat the point of the tile read path.
func (l *Log) lookupBundle(serial string) (*ProofBundle, error) {
	l.mu.RLock()
	if l.revoked[serial] {
		l.mu.RUnlock()
		return nil, ErrLogRevoked
	}
	idx, ok := l.issuance[serial]
	sth := l.sth
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: serial %s", ErrNotLogged, serial)
	}
	e, err := hydrated(l, func() (Entry, error) {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if idx < l.entries.base {
			return Entry{}, errColdRange
		}
		return l.entries.at(idx), nil
	})
	if err != nil {
		return nil, err
	}
	return &ProofBundle{Index: idx, Entry: e, STH: sth}, nil
}

// SerialRevoked reports whether the log holds an EntryRevoke for serial.
func (l *Log) SerialRevoked(serial string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.revoked[serial]
}
