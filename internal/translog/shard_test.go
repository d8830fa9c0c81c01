package translog

import (
	"crypto"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hostForShard finds a host name mapping to the wanted shard slot — so
// tests can aim entries at specific streams without depending on what
// FNV happens to do to any one label.
func hostForShard(t *testing.T, shards, want int) string {
	t.Helper()
	for i := 0; i < 64*shards; i++ {
		h := fmt.Sprintf("host-%d", i)
		if ShardOf(h, shards) == want {
			return h
		}
	}
	t.Fatalf("no host label maps to shard %d of %d", want, shards)
	return ""
}

// hostEntries builds n deterministic entries spread across nHosts hosts,
// every type represented, issuances and revocations included.
func hostEntries(n, nHosts int) []Entry {
	rng := mrand.New(mrand.NewSource(int64(n)*31 + int64(nHosts)))
	out := make([]Entry, 0, n)
	types := []EntryType{EntryEnroll, EntryAttestOK, EntryAttestFail, EntryProvision}
	for len(out) < n {
		typ := types[rng.Intn(len(types))]
		e := Entry{
			Type:      typ,
			Timestamp: int64(1700000000000 + len(out)),
			Actor:     fmt.Sprintf("fw-%d", rng.Intn(32)),
			Host:      fmt.Sprintf("host-%d", rng.Intn(nHosts)),
			Detail:    "OK",
		}
		if typ == EntryEnroll || typ == EntryProvision {
			e.Serial = fmt.Sprint(500000 + len(out))
		}
		out = append(out, e)
		if len(out)%11 == 0 && len(out) < n {
			out = append(out, Entry{
				Type: EntryRevoke, Timestamp: int64(1700000000000 + len(out)),
				Actor: "vm", Serial: fmt.Sprint(500000 + len(out) - 1), Detail: "withdrawn",
			})
		}
	}
	return out[:n]
}

// shardedConfig is a sharded store with small segments so recovery
// interleaves many files per stream.
func shardedConfig(shards int) StoreConfig {
	return StoreConfig{Shards: shards, SegmentMaxBytes: 1024}
}

// TestShardedRoundTrip is the sharded headline property: a multi-host
// log over per-host segment streams survives close/reopen with the
// identical root, head, global entry order and serial lookups — and its
// root is bit-identical to a single-stream store fed the same sequence,
// because sharding changes the WAL layout, never the tree.
func TestShardedRoundTrip(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	entries := hostEntries(900, 6)

	l, err := OpenDurableLog(key, dir, shardedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	rootBefore, err := l.RootAt(l.Size())
	if err != nil {
		t.Fatal(err)
	}
	sthBefore := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The streams really are per-host: more than one stream exists.
	_, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shardFirsts) < 2 {
		t.Fatalf("expected multiple shard streams, got %d", len(shardFirsts))
	}

	re, err := OpenDurableLog(key, dir, shardedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != uint64(len(entries)) {
		t.Fatalf("recovered %d entries, want %d", re.Size(), len(entries))
	}
	if got := re.Entries(0, re.Size()); !reflect.DeepEqual(got, entries) {
		t.Fatal("global entry order changed across sharded recovery")
	}
	rootAfter, err := re.RootAt(re.Size())
	if err != nil {
		t.Fatal(err)
	}
	if rootAfter != rootBefore {
		t.Fatal("root hash changed across sharded recovery")
	}
	sthAfter := re.STH()
	if sthAfter.Size != sthBefore.Size || sthAfter.RootHash != sthBefore.RootHash {
		t.Fatal("tree head changed across sharded recovery")
	}

	// Reference single-stream store over the same sequence: exact root.
	refDir := t.TempDir()
	ref, err := OpenDurableLog(key, refDir, StoreConfig{SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	refRoot, err := ref.RootAt(ref.Size())
	if err != nil {
		t.Fatal(err)
	}
	if refRoot != rootAfter {
		t.Fatal("sharded root differs from single-stream root over the same entries")
	}

	// Serial lookups were rebuilt from the interleaved replay.
	for _, e := range entries {
		if e.Serial == "" {
			continue
		}
		pbWant, errWant := ref.ProveSerial(e.Serial)
		pbGot, errGot := re.ProveSerial(e.Serial)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("serial %s: sharded err %v, reference err %v", e.Serial, errGot, errWant)
		}
		if pbWant != nil && pbGot.Index != pbWant.Index {
			t.Fatalf("serial %s: sharded index %d, reference %d", e.Serial, pbGot.Index, pbWant.Index)
		}
	}
}

// countingSigner counts tree-head signatures, the per-cycle cost the
// sequencer is supposed to amortise across hosts.
type countingSigner struct {
	inner crypto.Signer
	n     atomic.Int64
}

func (s *countingSigner) Public() crypto.PublicKey { return s.inner.Public() }

func (s *countingSigner) Sign(r io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	s.n.Add(1)
	return s.inner.Sign(r, digest, opts)
}

// TestSequencerMergesHostsIntoOneCycle pins the tentpole economics: four
// hosts' buffered batches commit under ONE merged Merkle batch — one
// tree-head signature — per sequencer cycle, not one per host.
func TestSequencerMergesHostsIntoOneCycle(t *testing.T) {
	cs := &countingSigner{inner: testSigner(t)}
	l, err := NewLog(cs)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewShardedAppender(l, ShardedAppenderConfig{
		Shards: 4, MaxBatch: 1024, FlushInterval: time.Hour,
	})
	defer sa.Close()

	before := cs.n.Load() // genesis head
	const perHost = 50
	for h := 0; h < 4; h++ {
		host := hostForShard(t, 4, h)
		for i := 0; i < perHost; i++ {
			if err := sa.Append(Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: "fw", Host: host, Detail: "OK"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sa.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Size(); got != 4*perHost {
		t.Fatalf("committed %d entries, want %d", got, 4*perHost)
	}
	if signs := cs.n.Load() - before; signs != 1 {
		t.Fatalf("4 hosts' batches cost %d tree-head signatures, want 1 merged cycle", signs)
	}
	// Global order interleaves the shards round-robin but stays total:
	// indices 0..N-1 with no gaps, every entry present exactly once.
	seen := map[string]int{}
	for _, e := range l.Entries(0, l.Size()) {
		seen[e.Host]++
	}
	for h := 0; h < 4; h++ {
		host := hostForShard(t, 4, h)
		if seen[host] != perHost {
			t.Fatalf("host %s has %d committed entries, want %d", host, seen[host], perHost)
		}
	}
}

// TestShardedAppenderDurable runs the sharded appender over a sharded
// durable store end to end and checks the acknowledged entries are on
// disk after a reopen.
func TestShardedAppenderDurable(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 4, SegmentMaxBytes: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sa := NewShardedAppender(l, ShardedAppenderConfig{MaxBatch: 64})
	if got := sa.Shards(); got != 4 {
		t.Fatalf("appender adopted %d shards from the store, want 4", got)
	}
	const total = 1000
	for i := 0; i < total; i++ {
		e := Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d", i), Host: fmt.Sprintf("host-%d", i%5), Detail: "OK"}
		if err := sa.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, StoreConfig{Shards: 4, SegmentMaxBytes: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != total {
		t.Fatalf("recovered %d entries, want %d", re.Size(), total)
	}
}

// TestShardedTornTailPerStream tears the tail record of ONE stream: only
// that stream's torn record is cut, every intact entry (other streams
// included) survives, and appends resume cleanly.
func TestShardedTornTailPerStream(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, shardedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	entries := hostEntries(120, 5)
	appendAll(t, l, entries)
	root, err := l.RootAt(l.Size())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn write on one stream's newest segment.
	_, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for shard, firsts := range shardFirsts {
		victim = filepath.Join(dir, shardSegmentName(shard, firsts[len(firsts)-1]))
		break
	}
	f, err := os.OpenFile(victim, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenDurableLog(key, dir, shardedConfig(3))
	if err != nil {
		t.Fatalf("per-stream torn tail not recovered: %v", err)
	}
	if re.Size() != uint64(len(entries)) {
		t.Fatalf("recovered %d entries, want %d", re.Size(), len(entries))
	}
	if got, _ := re.RootAt(re.Size()); got != root {
		t.Fatal("root changed after per-stream torn-tail recovery")
	}
	if _, err := re.Append(Entry{Type: EntryAttestOK, Actor: "fw-post", Host: "host-1", Detail: "OK"}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurableLog(key, dir, shardedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Size() != uint64(len(entries))+1 {
		t.Fatalf("size %d after post-truncation append, want %d", again.Size(), len(entries)+1)
	}
}

// TestShardedCrashMidCycleTrimsToPrefix simulates the sharded crash
// window: a cycle's records land in some streams but not others before
// the head is persisted, leaving index gaps beyond the head. Recovery
// must keep the contiguous prefix, trim the gapped remains, and resume.
func TestShardedCrashMidCycleTrimsToPrefix(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 2, SegmentMaxBytes: 1 << 20}
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostA, hostB := hostForShard(t, 2, 0), hostForShard(t, 2, 1)
	var committed []Entry
	for i := 0; i < 10; i++ {
		host := hostA
		if i%2 == 1 {
			host = hostB
		}
		committed = append(committed, Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: "fw", Host: host, Detail: "OK"})
	}
	if _, err := l.AppendBatch(committed); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The "crash": the next cycle would have been indices 10,11,12 —
	// 10 (shard 0) and 12 (shard 0) land, 11 (shard 1) never does.
	mk := func(i int, host string) Entry {
		return Entry{Type: EntryAttestOK, Timestamp: int64(100 + i), Actor: "fw-crash", Host: host, Detail: "OK"}
	}
	appendRaw := func(shard int, index uint64, e Entry) {
		t.Helper()
		_, shardFirsts, err := listAllSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		firsts := shardFirsts[shard]
		path := filepath.Join(dir, shardSegmentName(shard, firsts[len(firsts)-1]))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendIndexedRecord(nil, index, e.Marshal())); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendRaw(0, 10, mk(0, hostA))
	appendRaw(0, 12, mk(2, hostA))

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatalf("crash-torn cycle refused: %v", err)
	}
	// Index 10 is contiguous with the head and fully durable: kept.
	// Index 12 sits past the gap at 11: trimmed.
	if re.Size() != 11 {
		t.Fatalf("recovered %d entries, want 11 (contiguous prefix)", re.Size())
	}
	got, err := re.Entry(10)
	if err != nil || got.Actor != "fw-crash" {
		t.Fatalf("entry 10 = %+v (%v), want the surviving crash record", got, err)
	}
	sth := re.STH()
	if sth.Size != 11 {
		t.Fatalf("re-signed head covers %d, want 11", sth.Size)
	}
	// Appends resume on the trimmed boundary and survive another open.
	if _, err := re.Append(mk(9, hostB)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Size() != 12 {
		t.Fatalf("size %d after post-trim append, want 12", again.Size())
	}
}

// TestShardedSingleStreamRollbackDetected deletes one stream's newest
// segment after everything was committed: the interleaved replay comes
// up short of the persisted head and the open must refuse as rollback —
// per-shard history is still globally protected.
func TestShardedSingleStreamRollbackDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, shardedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, hostEntries(400, 6))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for shard, firsts := range shardFirsts {
		if len(firsts) < 2 {
			continue
		}
		if err := os.Remove(filepath.Join(dir, shardSegmentName(shard, firsts[len(firsts)-1]))); err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := OpenDurableLog(key, dir, shardedConfig(3)); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("single-stream rewind: got %v, want ErrStateRollback", err)
	}
}

// TestShardedTamperDetected rewrites one entry in place (checksum fixed
// up, global index preserved): only the root comparison can catch it.
func TestShardedTamperDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, hostEntries(60, 4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for shard, firsts := range shardFirsts {
		seg = filepath.Join(dir, shardSegmentName(shard, firsts[0]))
		break
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, err := scanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	index, body, err := splitIndexedRecord(payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	victim, err := unmarshalEntry(body)
	if err != nil {
		t.Fatal(err)
	}
	victim.Actor = "ghost"
	payloads[1] = indexedPayload(index, victim.Marshal())
	var rewritten []byte
	for _, p := range payloads {
		rewritten = appendRecord(rewritten, p)
	}
	if err := os.WriteFile(seg, rewritten, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{Shards: 2}); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("tampered sharded store: got %v, want ErrStateTampered", err)
	}
}

// TestShardedDuplicateIndexCorrupt: the same global index in two streams
// can never come from the sequencer — it is damage, not a crash.
func TestShardedDuplicateIndexCorrupt(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hostA, hostB := hostForShard(t, 2, 0), hostForShard(t, 2, 1)
	if _, err := l.AppendBatch([]Entry{
		{Type: EntryAttestOK, Timestamp: 1, Actor: "fw", Host: hostA, Detail: "OK"},
		{Type: EntryAttestOK, Timestamp: 2, Actor: "fw", Host: hostB, Detail: "OK"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge shard 1's record to claim shard 0's global index 0.
	e := Entry{Type: EntryAttestOK, Timestamp: 2, Actor: "fw", Host: hostB, Detail: "OK"}
	forged := appendIndexedRecord(nil, 0, e.Marshal())
	path := filepath.Join(dir, shardSegmentName(1, 0))
	if err := os.WriteFile(path, forged, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{Shards: 2}); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("duplicate global index: got %v, want ErrStateCorrupt", err)
	}
}

// TestMixedLayoutRefused: a directory holding both single-stream and
// sharded segments is no layout at all — refuse it loudly.
func TestMixedLayoutRefused(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(5))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	e := Entry{Type: EntryAttestOK, Timestamp: 9, Actor: "fw", Host: "host-9", Detail: "OK"}
	if err := os.WriteFile(filepath.Join(dir, shardSegmentName(0, 0)),
		appendIndexedRecord(nil, 5, e.Marshal()), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("mixed layouts: got %v, want ErrStateCorrupt", err)
	}
}

// TestShardedLayoutStickiness: opening an existing single-stream store
// with Shards configured keeps the single stream — the layout is fixed
// at store creation, never silently migrated.
func TestShardedLayoutStickiness(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(10))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, StoreConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, re, hostEntries(10, 3))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	firsts, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shardFirsts) != 0 {
		t.Fatalf("existing single-stream store grew %d shard streams", len(shardFirsts))
	}
	if len(firsts) == 0 {
		t.Fatal("single stream vanished")
	}
}

// TestShardCountPinnedAtCreation: the stream count a sharded store was
// created with survives reopens under a *different* StoreConfig.Shards
// — the host→stream routing never silently remaps, and the pinned count
// is visible through Log.StoreShards.
func TestShardCountPinnedAtCreation(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.StoreShards(); got != 8 {
		t.Fatalf("StoreShards = %d at creation, want 8", got)
	}
	appendAll(t, l, hostEntries(100, 6))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4, 16} {
		re, err := OpenDurableLog(key, dir, StoreConfig{Shards: shards})
		if err != nil {
			t.Fatalf("reopen with Shards=%d: %v", shards, err)
		}
		if got := re.StoreShards(); got != 8 {
			t.Fatalf("reopen with Shards=%d remapped the store to %d streams, want the pinned 8", shards, got)
		}
		appendAll(t, re, hostEntries(20, 6))
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Every stream on disk stays within the pinned slot range.
	_, shardFirsts, err := listAllSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for shard := range shardFirsts {
		if shard >= 8 {
			t.Fatalf("records landed in stream %d, beyond the pinned 8 slots", shard)
		}
	}
	// And the final state replays cleanly.
	again, err := OpenDurableLog(key, dir, StoreConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Size() != 160 {
		t.Fatalf("recovered %d entries, want 160", again.Size())
	}
}

// TestShardCountLimit: the segment naming holds 4 shard digits, so a
// config beyond that must refuse up front — a slot the file name cannot
// carry would write segments recovery silently ignores.
func TestShardCountLimit(t *testing.T) {
	key := testSigner(t)
	if _, err := OpenDurableLog(key, t.TempDir(), StoreConfig{Shards: 10000}); err == nil {
		t.Fatal("10000-shard store opened; its streams would be unnameable")
	}
	l, err := OpenDurableLog(key, t.TempDir(), StoreConfig{Shards: 9999})
	if err != nil {
		t.Fatalf("max shard count refused: %v", err)
	}
	l.Close()
}

// TestShardedOversizeEntryRefused: the sharded frame reserves 8 bytes
// for the global index, so the entry bound is tighter — and refusal must
// come before any byte is written, leaving the store healthy.
func TestShardedOversizeEntryRefused(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := Entry{Type: EntryAttestFail, Actor: "fw-big", Host: "host-0", Detail: string(make([]byte, maxShardedEntryBytes+1))}
	if _, err := l.Append(huge); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("oversize sharded entry: got %v, want ErrEntryTooLarge", err)
	}
	if _, err := l.Append(Entry{Type: EntryAttestOK, Actor: "fw-ok", Host: "host-0", Detail: "OK"}); err != nil {
		t.Fatalf("append after refused oversize: %v", err)
	}
}

// TestShardSegmentNameRoundTrip pins the sharded file-name encoding and
// its disjointness from the single-stream names.
func TestShardSegmentNameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shard int
		first uint64
	}{{0, 0}, {3, 1}, {15, 255}, {9999, 1 << 40}} {
		shard, first, ok := parseShardSegmentName(shardSegmentName(tc.shard, tc.first))
		if !ok || shard != tc.shard || first != tc.first {
			t.Fatalf("round trip (%d,%d) -> %q -> (%d,%d,%v)",
				tc.shard, tc.first, shardSegmentName(tc.shard, tc.first), shard, first, ok)
		}
	}
	// Single-stream names never parse as sharded and vice versa.
	if _, _, ok := parseShardSegmentName(segmentName(7)); ok {
		t.Fatal("single-stream name parsed as sharded")
	}
	if _, ok := parseSegmentName(shardSegmentName(1, 7)); ok {
		t.Fatal("sharded name parsed as single-stream")
	}
	for _, bad := range []string{"seg-h12-00000000000000000007.wal", "seg-h0001-7.wal", "seg-h0001-0000000000000000000x.wal"} {
		if _, _, ok := parseShardSegmentName(bad); ok {
			t.Fatalf("%q parsed as a sharded segment", bad)
		}
	}
}

// TestShardOfStability pins the host→shard mapping: deterministic,
// in-range, and spreading real host labels across slots.
func TestShardOfStability(t *testing.T) {
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		h := fmt.Sprintf("host-%d", i)
		s := ShardOf(h, 16)
		if s < 0 || s >= 16 {
			t.Fatalf("ShardOf(%q,16) = %d out of range", h, s)
		}
		if s != ShardOf(h, 16) {
			t.Fatalf("ShardOf(%q) not deterministic", h)
		}
		used[s] = true
	}
	if len(used) < 8 {
		t.Fatalf("64 hosts landed on only %d of 16 shards", len(used))
	}
	if ShardOf("anything", 1) != 0 || ShardOf("", 4) < 0 {
		t.Fatal("degenerate shard counts mishandled")
	}
}

// TestProveSerialIssuanceIndexAcrossRecovery pins the O(1) proof-lookup
// fix: the serial→latest-issuance index is maintained on commit and
// rebuilt identically by both recovery layouts — re-provisioned serials
// prove at their NEWEST issuance index, revoked serials still refuse.
func TestProveSerialIssuanceIndexAcrossRecovery(t *testing.T) {
	for _, cfg := range []StoreConfig{{}, {Shards: 3}} {
		name := "single"
		if cfg.Shards > 1 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := []Entry{
				{Type: EntryEnroll, Timestamp: 1, Actor: "fw-a", Host: "host-0", Serial: "7001"},
				{Type: EntryAttestOK, Timestamp: 2, Actor: "fw-a", Host: "host-0", Detail: "OK"},
				{Type: EntryProvision, Timestamp: 3, Actor: "fw-a", Host: "host-0", Serial: "7001"},
				{Type: EntryEnroll, Timestamp: 4, Actor: "fw-b", Host: "host-1", Serial: "7002"},
				{Type: EntryRevoke, Timestamp: 5, Actor: "fw-b", Serial: "7002"},
			}
			if _, err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			check := func(t *testing.T, log *Log) {
				t.Helper()
				pb, err := log.ProveSerial("7001")
				if err != nil {
					t.Fatal(err)
				}
				// The provision at index 2 supersedes the enroll at 0.
				if pb.Index != 2 || pb.Entry.Type != EntryProvision {
					t.Fatalf("serial 7001 proved at index %d (%v), want the provision at 2", pb.Index, pb.Entry.Type)
				}
				if err := pb.Verify(&key.PublicKey); err != nil {
					t.Fatal(err)
				}
				if _, err := log.ProveSerial("7002"); !errors.Is(err, ErrLogRevoked) {
					t.Fatalf("revoked serial: got %v, want ErrLogRevoked", err)
				}
				if _, err := log.ProveSerial("nope"); !errors.Is(err, ErrNotLogged) {
					t.Fatalf("unknown serial: got %v, want ErrNotLogged", err)
				}
			}
			check(t, l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(t, re)
		})
	}
}

// TestShardedFlushWaitsOutFinalCommit pins the PR-3 Flush/Close
// guarantee for the sharded path: with the appender closed but the final
// cycle not yet committed, Flush must wait the cycle out. The sequencer
// goroutine is not started — the test plays its role deterministically.
func TestShardedFlushWaitsOutFinalCommit(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	sa := raceAppender(l, 2)
	flushed := make(chan error, 1)
	go func() { flushed <- sa.Flush() }()
	select {
	case <-flushed:
		t.Fatalf("Flush returned before the final cycle landed (%d entries committed)", l.Size())
	case <-time.After(100 * time.Millisecond):
	}
	sa.commitCycle() // the sequencer's final cycle
	if err := <-flushed; err != nil {
		t.Fatalf("flush: %v", err)
	}
	if l.Size() != 1 {
		t.Fatalf("final cycle not committed: size %d", l.Size())
	}
}

// TestShardedFlushCloseStress is the -race satellite: 16 producer
// goroutines across 4 hosts hammer the sharded appender while the
// sequencer commits and Flush/Close race in. Every entry accepted
// before a Flush must be committed when that Flush returns; every
// accepted entry must be committed (and, on the durable store, durable)
// at the end. It runs over a sharded durable store and over the
// unsharded in-memory log the Verification Manager uses without a
// statedir, where every host shares one buffer.
func TestShardedFlushCloseStress(t *testing.T) {
	key := testSigner(t)
	storeCfg := StoreConfig{Shards: 4, SegmentMaxBytes: 4096, NoSync: true}
	cases := []struct {
		name    string
		shards  int
		iters   int
		durable bool
		delay   time.Duration
	}{
		{"durable-4-streams", 4, 8, true, 50 * time.Microsecond},
		{"in-memory-1-shard", 1, 25, false, 100 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < tc.iters; iter++ {
				signer := slowSigner{inner: key, delay: tc.delay}
				var dir string
				var l *Log
				var err error
				if tc.durable {
					dir = t.TempDir()
					l, err = OpenDurableLog(signer, dir, storeCfg)
				} else {
					l, err = NewLog(signer)
				}
				if err != nil {
					t.Fatal(err)
				}
				sa := NewShardedAppender(l, ShardedAppenderConfig{Shards: tc.shards, MaxBatch: 8, FlushInterval: time.Millisecond})
				appended := stressFlushClose(t, sa, l, iter)
				if !tc.durable {
					continue
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenDurableLog(key, dir, storeCfg)
				if err != nil {
					t.Fatalf("iter %d: reopen: %v", iter, err)
				}
				if got := re.Size(); got != appended {
					t.Fatalf("iter %d: %d durable, %d acknowledged", iter, got, appended)
				}
				re.Close()
			}
		})
	}
}

// stressFlushClose runs one TestShardedFlushCloseStress iteration
// against sa and returns how many entries the appender acknowledged.
func stressFlushClose(t *testing.T, sa *ShardedAppender, l *Log, iter int) uint64 {
	t.Helper()
	const producers = 16
	var appended atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			host := fmt.Sprintf("host-%d", p%4)
			for i := 0; i < 100; i++ {
				e := Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d-%d", p, i), Host: host, Detail: "OK"}
				if err := sa.Append(e); err != nil {
					if !errors.Is(err, ErrClosedLog) {
						t.Errorf("append: %v", err)
					}
					return
				}
				appended.Add(1)
				if i%33 == 0 {
					if err := sa.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(p)
	}
	closer := make(chan struct{})
	go func() {
		defer close(closer)
		time.Sleep(time.Duration(iter%8) * 200 * time.Microsecond)
		if err := sa.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// Pre-Flush entries must be committed when Flush returns, whether
	// the appender is open, closing or closed.
	time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
	n := appended.Load()
	if err := sa.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := l.Size(); got < n {
		t.Fatalf("iter %d: Flush returned with %d of %d pre-Flush entries committed", iter, got, n)
	}
	wg.Wait()
	<-closer
	if err := sa.Flush(); err != nil {
		t.Fatalf("post-close flush: %v", err)
	}
	if got, want := l.Size(), appended.Load(); got != want {
		t.Fatalf("iter %d: %d committed, %d successfully appended", iter, got, want)
	}
	return appended.Load()
}
