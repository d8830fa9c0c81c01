package translog

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http/httptest"
	"testing"
	"time"
)

func testSigner(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func testEntry(i int) Entry {
	return Entry{
		Type:      EntryType(i%5 + 1),
		Timestamp: int64(1700000000000 + i),
		Actor:     fmt.Sprintf("vnf-%d", i),
		Host:      "host-0",
		Serial:    fmt.Sprintf("%d", 100+i),
		Detail:    "OK",
	}
}

func TestEntryMarshalRoundTrip(t *testing.T) {
	cases := []Entry{
		{Type: EntryEnroll, Timestamp: 42, Actor: "fw-0", Host: "host-0", Serial: "7", Detail: "OK"},
		{Type: EntryRevoke, Timestamp: -1, Actor: "fw-0", Serial: "7"},
		{Type: EntryAttestFail, Timestamp: 0, Actor: "host-1", Detail: "nonce mismatch"},
		{Type: EntryProvision, Timestamp: 1, Actor: "fw", Measurement: []byte{1, 2, 3}},
	}
	for _, want := range cases {
		got, err := unmarshalEntry(want.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestEntryUnmarshalRejectsMalformed(t *testing.T) {
	full := testEntry(3).Marshal()
	// Every strict prefix must be rejected, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := unmarshalEntry(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := unmarshalEntry(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), full...)
	bad[1] = 99 // unknown type
	if _, err := unmarshalEntry(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	bad = append([]byte(nil), full...)
	bad[0] = 2 // unknown version
	if _, err := unmarshalEntry(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Huge length prefix must not allocate or crash.
	huge := append([]byte{entryVersion, byte(EntryEnroll)}, make([]byte, 8)...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	if _, err := unmarshalEntry(huge); err == nil {
		t.Fatal("huge length prefix accepted")
	}
}

// TestInclusionProofsExhaustive checks every leaf at every historical tree
// size up to 65 entries — covering perfect, one-past-perfect and ragged
// tree shapes.
func TestInclusionProofsExhaustive(t *testing.T) {
	tr := newTree()
	var leaves []Hash
	for i := 0; i < 65; i++ {
		leaves = append(leaves, LeafHash(testEntry(i).Marshal()))
		tr.append(leaves[i])
		n := uint64(i + 1)
		root, err := tr.rootAt(n)
		if err != nil {
			t.Fatal(err)
		}
		for m := uint64(0); m < n; m++ {
			proof, err := tr.inclusionProof(m, n)
			if err != nil {
				t.Fatalf("proof(%d,%d): %v", m, n, err)
			}
			if err := VerifyInclusion(leaves[m], m, n, proof, root); err != nil {
				t.Fatalf("verify(%d,%d): %v", m, n, err)
			}
			// The proof must not verify for a different leaf or index.
			if m > 0 {
				if VerifyInclusion(leaves[m-1], m, n, proof, root) == nil {
					t.Fatalf("wrong leaf accepted at (%d,%d)", m, n)
				}
				if n > 1 && VerifyInclusion(leaves[m], m-1, n, proof, root) == nil {
					t.Fatalf("wrong index accepted at (%d,%d)", m, n)
				}
			}
		}
	}
}

// TestConsistencyProofsExhaustive checks every (first, second) size pair
// up to 65 entries.
func TestConsistencyProofsExhaustive(t *testing.T) {
	tr := newTree()
	var roots []Hash
	roots = append(roots, emptyRoot())
	for i := 0; i < 65; i++ {
		tr.append(LeafHash(testEntry(i).Marshal()))
		root, err := tr.rootAt(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
	}
	for first := uint64(1); first <= 65; first++ {
		for second := first; second <= 65; second++ {
			proof, err := tr.consistencyProof(first, second)
			if err != nil {
				t.Fatalf("proof(%d,%d): %v", first, second, err)
			}
			if err := VerifyConsistency(first, second, roots[first], roots[second], proof); err != nil {
				t.Fatalf("verify(%d,%d): %v", first, second, err)
			}
			// A forked history must not verify.
			if first < second {
				if VerifyConsistency(first, second, roots[first-1], roots[second], proof) == nil {
					t.Fatalf("forged old root accepted at (%d,%d)", first, second)
				}
				if VerifyConsistency(first, second, roots[first], roots[second-1], proof) == nil {
					t.Fatalf("forged new root accepted at (%d,%d)", first, second)
				}
			}
		}
	}
}

func TestVerifyConsistencyEmptyPrefix(t *testing.T) {
	tr := newTree()
	tr.append(LeafHash([]byte("a")), LeafHash([]byte("b")))
	root, _ := tr.rootAt(2)
	if err := VerifyConsistency(0, 2, emptyRoot(), root, nil); err != nil {
		t.Fatalf("empty prefix: %v", err)
	}
	if VerifyConsistency(0, 2, root, root, nil) == nil {
		t.Fatal("non-empty root accepted for size 0")
	}
}

func TestSignedTreeHead(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	sth := l.STH()
	if sth.Size != 0 || sth.RootHash != emptyRoot() {
		t.Fatalf("bad genesis head: %+v", sth)
	}
	if err := sth.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
	other := testSigner(t)
	if sth.Verify(&other.PublicKey) == nil {
		t.Fatal("foreign key accepted")
	}
	if _, err := l.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	sth2 := l.STH()
	if sth2.Size != 1 {
		t.Fatalf("size %d after one append", sth2.Size)
	}
	if err := sth2.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
	// Tampered fields must break the signature.
	tampered := sth2
	tampered.Size = 2
	if tampered.Verify(&key.PublicKey) == nil {
		t.Fatal("tampered size accepted")
	}
}

func TestLogProveSerial(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	enroll := Entry{Type: EntryEnroll, Timestamp: 5, Actor: "fw-x", Host: "host-0", Serial: "4242"}
	if _, err := l.Append(enroll); err != nil {
		t.Fatal(err)
	}
	pb, err := l.ProveSerial("4242")
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if pb.Entry.Actor != "fw-x" {
		t.Fatalf("wrong entry: %+v", pb.Entry)
	}
	if _, err := l.ProveSerial("no-such"); err == nil {
		t.Fatal("unknown serial proved")
	}
	// Revocation flips the lookup to ErrLogRevoked.
	if _, err := l.Append(Entry{Type: EntryRevoke, Timestamp: 6, Actor: "fw-x", Serial: "4242"}); err != nil {
		t.Fatal(err)
	}
	if !l.SerialRevoked("4242") {
		t.Fatal("revocation not recorded")
	}
	if _, err := l.ProveSerial("4242"); !errors.Is(err, ErrLogRevoked) {
		t.Fatalf("want ErrLogRevoked, got %v", err)
	}
}

func TestAppenderBatchesAndFlushes(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewShardedAppender(l, ShardedAppenderConfig{Shards: 4, MaxBatch: 16, FlushInterval: time.Hour})
	defer sa.Close()
	const n, hosts = 100, 3
	submitted := map[string][]string{} // host → actors in submission order
	for i := 0; i < n; i++ {
		e := testEntry(i)
		e.Host = fmt.Sprintf("host-%d", i%hosts)
		if err := sa.Append(e); err != nil {
			t.Fatal(err)
		}
		submitted[e.Host] = append(submitted[e.Host], e.Actor)
	}
	if err := sa.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Size(); got != n {
		t.Fatalf("size %d after flush, want %d", got, n)
	}
	// Each host's entries retain its submission order.
	for i := 0; i < n; i++ {
		e, err := l.Entry(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want := submitted[e.Host]
		if len(want) == 0 || e.Actor != want[0] {
			t.Fatalf("entry %d out of %s's submission order: %+v", i, e.Host, e)
		}
		submitted[e.Host] = want[1:]
	}
	sth := l.STH()
	if err := sth.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sa.Append(testEntry(0)); !errors.Is(err, ErrClosedLog) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestHTTPServerAndClient(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	c := NewClient(srv.URL, &key.PublicKey)

	// Remote append, then audit everything back.
	var batch []Entry
	for i := 0; i < 10; i++ {
		batch = append(batch, testEntry(i))
	}
	if err := c.Append(batch); err != nil {
		t.Fatal(err)
	}
	sth, err := c.STH()
	if err != nil {
		t.Fatal(err)
	}
	if sth.Size != 10 {
		t.Fatalf("remote size %d", sth.Size)
	}
	entries, err := c.Entries(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || entries[3].Actor != "vnf-3" {
		t.Fatalf("entries fetch wrong: %d", len(entries))
	}
	proof, err := c.InclusionProof(3, sth.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(LeafHash(entries[3].Marshal()), 3, sth.Size, proof, sth.RootHash); err != nil {
		t.Fatal(err)
	}
	pb, err := c.ProveSerial("103")
	if err != nil {
		t.Fatal(err)
	}
	if pb.Entry.Actor != "vnf-3" {
		t.Fatalf("lookup wrong entry: %+v", pb.Entry)
	}
	if _, err := c.ProveSerial("99999"); err == nil {
		t.Fatal("unknown serial proved remotely")
	}
	// Revoked classification travels as protocol (410), not prose.
	if err := c.Append([]Entry{{Type: EntryRevoke, Timestamp: 99, Actor: "vnf-3", Serial: "103"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProveSerial("103"); !errors.Is(err, ErrLogRevoked) {
		t.Fatalf("want ErrLogRevoked over HTTP, got %v", err)
	}
	cons, err := c.ConsistencyProof(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	r4, _ := l.RootAt(4)
	if err := VerifyConsistency(4, 10, r4, sth.RootHash, cons); err != nil {
		t.Fatal(err)
	}
}

func TestWitnessDetectsSplitViewAndRollback(t *testing.T) {
	key := testSigner(t)
	honest, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWitness(&key.PublicKey)
	fetch := func(first, second uint64) ([]Hash, error) { return honest.ConsistencyProof(first, second) }

	if err := w.Advance(honest.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := honest.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(honest.STH(), fetch); err != nil {
		t.Fatalf("honest growth rejected: %v", err)
	}

	// Split view: a second log, same signer, different history, same size.
	evil, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 109; i++ {
		if _, err := evil.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	evilFetch := func(first, second uint64) ([]Hash, error) { return evil.ConsistencyProof(first, second) }
	if err := w.Advance(evil.STH(), evilFetch); err == nil {
		t.Fatal("split view at equal size accepted")
	}
	// Split view at larger size: proofs come from the forked tree and
	// cannot connect to the witnessed root.
	for i := 109; i < 120; i++ {
		if _, err := evil.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(evil.STH(), evilFetch); err == nil {
		t.Fatal("split view at larger size accepted")
	}

	// Rollback: a signed head smaller than the witnessed one.
	old := honest.STH()
	for i := 9; i < 12; i++ {
		if _, err := honest.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(honest.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(old, fetch); err == nil {
		t.Fatal("rollback accepted")
	}

	// The witness state survived every attack: honest growth still works.
	for i := 12; i < 20; i++ {
		if _, err := honest.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(honest.STH(), fetch); err != nil {
		t.Fatalf("honest growth after attacks rejected: %v", err)
	}
}

// TestEntriesCountOverflow: a hostile count must clamp, not wrap the
// slice bounds (reachable from the unauthenticated HTTP read endpoint).
func TestEntriesCountOverflow(t *testing.T) {
	l, err := NewLog(testSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Entries(1, ^uint64(0)); len(got) != 2 {
		t.Fatalf("overflowing count returned %d entries", len(got))
	}
	if got := l.Entries(^uint64(0), 1); got != nil {
		t.Fatalf("out-of-range start returned %d entries", len(got))
	}
}

// failingSigner errors after a set number of signatures.
type failingSigner struct {
	*ecdsa.PrivateKey
	remaining int
}

func (f *failingSigner) Sign(rand io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	if f.remaining <= 0 {
		return nil, fmt.Errorf("signer unavailable")
	}
	f.remaining--
	return f.PrivateKey.Sign(rand, digest, opts)
}

// TestAppendBatchRollsBackOnSignFailure: a failed commit must leave no
// trace — no entries, no tree growth, and later appends still verify.
func TestAppendBatchRollsBackOnSignFailure(t *testing.T) {
	key := testSigner(t)
	fs := &failingSigner{PrivateKey: key, remaining: 3} // genesis + 2 commits
	l, err := NewLog(fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	sthBefore := l.STH()
	if _, err := l.AppendBatch([]Entry{testEntry(2), testEntry(3)}); err == nil {
		t.Fatal("append with dead signer succeeded")
	}
	after := l.STH()
	if l.Size() != 2 || after.Size != sthBefore.Size || after.RootHash != sthBefore.RootHash {
		t.Fatalf("failed commit left state: size=%d head=%d", l.Size(), after.Size)
	}
	// Signer recovers; the log must continue consistently.
	fs.remaining = 10
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 9, Actor: "fw-r", Serial: "777"}); err != nil {
		t.Fatal(err)
	}
	sth := l.STH()
	if sth.Size != 3 {
		t.Fatalf("size %d after recovery", sth.Size)
	}
	proof, err := l.ConsistencyProof(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(2, 3, sthBefore.RootHash, sth.RootHash, proof); err != nil {
		t.Fatalf("post-rollback history inconsistent: %v", err)
	}
	pb, err := l.ProveSerial("777")
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
}

// certWithSerial builds the minimal certificate shape the checker reads.
func certWithSerial(n int64) *x509.Certificate {
	return &x509.Certificate{SerialNumber: big.NewInt(n)}
}

func TestCredentialChecker(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	check := NewCredentialChecker(&key.PublicKey, l)
	if err := check(certWithSerial(77)); err != nil {
		t.Fatalf("logged credential rejected: %v", err)
	}
	if err := check(certWithSerial(78)); err == nil {
		t.Fatal("unlogged credential accepted")
	}
	if _, err := l.Append(Entry{Type: EntryRevoke, Timestamp: 2, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	if err := check(certWithSerial(77)); err == nil {
		t.Fatal("revoked credential accepted")
	}
}
