package translog

// Regression tests for the translog client/appender fix round: each test
// pins one bug that shipped — a client that could hang forever, a Flush
// that could race Close and lie, an append endpoint that hid "drop this"
// behind 500, and a witness that let Last() age backwards.

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

func jsonMarshalWireBatch(batch []Entry) ([]byte, error) {
	wire := make([]wireEntry, len(batch))
	for i, e := range batch {
		wire[i] = wireEntry{Canonical: e.Marshal()}
	}
	return json.Marshal(wire)
}

// TestClientTimeoutAgainstHangingServer: a stalled log server must not
// hang the witness/monitor forever — the default client times out, and
// clientConfig can tighten the bound.
func TestClientTimeoutAgainstHangingServer(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang until the test ends
	}))
	t.Cleanup(func() {
		once.Do(func() { close(release) })
		srv.Close()
	})

	c := newClientWithConfig(srv.URL, nil, clientConfig{Timeout: 150 * time.Millisecond})
	start := time.Now()
	_, err := c.STH()
	if err == nil {
		t.Fatal("STH against a hanging server returned")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client hung %v despite 150ms timeout", elapsed)
	}
	if _, _, err := c.GossipHead(); err == nil {
		t.Fatal("gossip against a hanging server returned")
	}
	if _, _, err := c.ExchangeGossip("w", SignedTreeHead{}, false); err == nil {
		t.Fatal("gossip exchange against a hanging server returned")
	}

	// The convenience constructor carries the safety default; zero config
	// means the default, and a negative timeout opts out explicitly.
	if got := NewClient(srv.URL, nil).http.Timeout; got != defaultClientTimeout {
		t.Fatalf("NewClient timeout %v, want %v", got, defaultClientTimeout)
	}
	if got := newClientWithConfig(srv.URL, nil, clientConfig{}).http.Timeout; got != defaultClientTimeout {
		t.Fatalf("zero-config timeout %v, want %v", got, defaultClientTimeout)
	}
	if got := newClientWithConfig(srv.URL, nil, clientConfig{Timeout: -1}).http.Timeout; got != 0 {
		t.Fatalf("negative timeout gave %v, want unbounded", got)
	}
}

// slowSigner widens the commit window so Flush/Close interleavings that
// would be nanosecond races become reliably observable.
type slowSigner struct {
	inner crypto.Signer
	delay time.Duration
}

func (s slowSigner) Public() crypto.PublicKey { return s.inner.Public() }

func (s slowSigner) Sign(r io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	time.Sleep(s.delay)
	return s.inner.Sign(r, digest, opts)
}

// raceAppender builds a sharded appender frozen in the exact state the
// Flush/Close race produces: an entry slipped into a shard buffer
// between Close's drain and `closed` being set, so the sequencer's
// *final* cycle — which runs after Close has already returned — still
// has to commit it. No sequencer goroutine is started: the test plays
// its role (commitCycle), so the interleaving is deterministic instead
// of a scheduler lottery.
func raceAppender(l *Log, shards int) *ShardedAppender {
	sa := &ShardedAppender{
		log:       l,
		shards:    make([]*hostShard, shards),
		maxBatch:  4,
		interval:  time.Hour,
		workers:   1,
		shardInst: shardInstruments(shards),
		slowLog:   func(string, ...any) {},
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := range sa.shards {
		sa.shards[i] = &hostShard{closed: true}
	}
	sa.idle = sync.NewCond(&sa.mu)
	sa.shards[0].pending = []Entry{{Type: EntryAttestOK, Actor: "late", Host: "host-0", Detail: "OK"}}
	sa.closed = true
	close(sa.done)
	return sa
}

// TestFlushWaitsOutFinalCommit pins the Flush/Close race on the
// one-shard appender an unsharded Verification Manager runs: with the
// appender closed but the final cycle not yet committed, Flush must wait
// the commit out — not report completion while the entry is in flight.
func TestFlushWaitsOutFinalCommit(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	sa := raceAppender(l, 1)
	flushed := make(chan error, 1)
	go func() { flushed <- sa.Flush() }()
	select {
	case <-flushed:
		// Flush returned with the final cycle still uncommitted.
		t.Fatalf("Flush returned before the final cycle landed (%d entries committed)", l.Size())
	case <-time.After(100 * time.Millisecond):
		// Still waiting: correct.
	}
	sa.commitCycle() // the sequencer's final cycle
	if err := <-flushed; err != nil {
		t.Fatalf("flush: %v", err)
	}
	if l.Size() != 1 {
		t.Fatalf("final cycle not committed: size %d", l.Size())
	}
}

// TestFlushReportsFinalCommitError: the Flush/Close race of
// TestFlushWaitsOutFinalCommit, but the final cycle's commit fails —
// Flush must surface that error, not return nil.
func TestFlushReportsFinalCommitError(t *testing.T) {
	key := testSigner(t)
	var left atomic.Int64
	left.Store(1) // genesis head only; the final cycle's signature fails
	l, err := NewLog(failAfterSigner{inner: key, left: &left})
	if err != nil {
		t.Fatal(err)
	}
	sa := raceAppender(l, 1)
	flushed := make(chan error, 1)
	go func() { flushed <- sa.Flush() }()
	time.Sleep(20 * time.Millisecond) // let Flush reach its wait
	sa.commitCycle()
	if err := <-flushed; err == nil {
		t.Fatal("Flush swallowed the final cycle's commit error")
	}
}

// failAfterSigner lets the first n signatures through, then fails — so a
// final racing batch fails its commit and Flush must report it.
type failAfterSigner struct {
	inner crypto.Signer
	left  *atomic.Int64
}

func (s failAfterSigner) Public() crypto.PublicKey { return s.inner.Public() }

func (s failAfterSigner) Sign(r io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	if s.left.Add(-1) < 0 {
		return nil, errors.New("signer gone")
	}
	return s.inner.Sign(r, digest, opts)
}

// TestFlushReportsFinalBatchError: the error of a cycle committed during
// Close's drain is visible to a concurrent (or later) Flush, not dropped.
func TestFlushReportsFinalBatchError(t *testing.T) {
	key := testSigner(t)
	var left atomic.Int64
	left.Store(1) // genesis head only; every batch commit after it fails
	l, err := NewLog(failAfterSigner{inner: key, left: &left})
	if err != nil {
		t.Fatal(err)
	}
	sa := NewShardedAppender(l, ShardedAppenderConfig{Shards: 1, FlushInterval: time.Hour})
	if err := sa.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err == nil {
		t.Fatal("Close dropped the final cycle's commit error")
	}
	if err := sa.Flush(); err == nil {
		t.Fatal("Flush after failed final cycle returned nil")
	}
}

// TestAppendEndpointStatusCodes: the producer-facing status-code
// contract. 200 commit, 400 for batches that can never succeed (drop),
// 503 for a latched/closed store (retry later), and the client maps each
// onto its sentinel error.
func TestAppendEndpointStatusCodes(t *testing.T) {
	key := testSigner(t)
	l, err := OpenDurableLog(key, t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	c := NewClient(srv.URL, &key.PublicKey)

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+pathAppend, "application/json", bytesReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	wireOf := func(e Entry) []byte {
		data, err := jsonMarshalWireBatch([]Entry{e})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"valid entry commits", wireOf(testEntry(1)), http.StatusOK},
		{"malformed JSON", []byte("{"), http.StatusBadRequest},
		{"undecodable canonical entry", []byte(`[{"canonical":"AAECAw=="}]`), http.StatusBadRequest},
		{"oversized record", wireOf(Entry{Type: EntryAttestFail, Actor: "big", Detail: string(make([]byte, maxRecordBytes+1))}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// Client-side classification: invalid → ErrAppendRejected (drop it).
	err = c.Append([]Entry{{Type: EntryAttestFail, Actor: "big", Detail: string(make([]byte, maxRecordBytes+1))}})
	if !errors.Is(err, ErrAppendRejected) {
		t.Fatalf("oversized append error %v, want ErrAppendRejected", err)
	}
	// The refused batch did not poison the store: appends still work.
	if err := c.Append([]Entry{testEntry(2)}); err != nil {
		t.Fatalf("append after refused batch: %v", err)
	}

	// A latched/closed store is transient from the producer's view:
	// 503 → ErrLogUnavailable (retry against a healed server).
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := post(wireOf(testEntry(3))); got != http.StatusServiceUnavailable {
		t.Fatalf("latched store: status %d, want 503", got)
	}
	err = c.Append([]Entry{testEntry(3)})
	if !errors.Is(err, ErrLogUnavailable) {
		t.Fatalf("latched-store append error %v, want ErrLogUnavailable", err)
	}
}

// TestWitnessRejectsTimestampRegression: a same-size, same-root head with
// an older timestamp must not move Last() backwards in time; a newer one
// must refresh it.
func TestWitnessRejectsTimestampRegression(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(a, b uint64) ([]Hash, error) { return l.ConsistencyProof(a, b) }
	w := NewWitness(&key.PublicKey)
	if err := w.Advance(l.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	cur, _ := w.Last()

	resign := func(ts int64) SignedTreeHead {
		t.Helper()
		sth := SignedTreeHead{Size: cur.Size, RootHash: cur.RootHash, Timestamp: ts}
		digest := sth.signingDigest()
		sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		sth.Signature = sig
		return sth
	}

	// Regressed timestamp: benign (a stale re-served head), but Last()
	// keeps the newest — both on the served path and the gossip path.
	older := resign(cur.Timestamp - 60_000)
	if err := w.Advance(older, fetch); err != nil {
		t.Fatalf("stale head treated as an attack: %v", err)
	}
	if got, _ := w.Last(); got.Timestamp != cur.Timestamp {
		t.Fatalf("Advance moved Last() back in time: %d → %d", cur.Timestamp, got.Timestamp)
	}
	if err := w.Merge(older, fetch); err != nil {
		t.Fatalf("stale peer head treated as an attack: %v", err)
	}
	if got, _ := w.Last(); got.Timestamp != cur.Timestamp {
		t.Fatalf("Merge moved Last() back in time: %d → %d", cur.Timestamp, got.Timestamp)
	}

	// Newer timestamp at the same size/root: freshness advances.
	newer := resign(cur.Timestamp + 60_000)
	if err := w.Advance(newer, fetch); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Last(); got.Timestamp != newer.Timestamp {
		t.Fatalf("fresh head not adopted: %d, want %d", got.Timestamp, newer.Timestamp)
	}
}
