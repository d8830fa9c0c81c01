// Quorum co-signing: the artifact layer on top of witness partitioning
// (partition.go). A single witness's word that a head is good was never
// the trust model — heads are log-signed and witnesses only detect
// misbehaviour — but once the audit work is partitioned, a relying
// party needs to know that *enough* partial auditors stand behind a
// head. Witnesses that verified their assigned shard streams co-sign
// the merged head with their own ECDSA keys; a CosignedHead (log-signed
// head + ≥Q distinct witness signatures verified against the pinned
// roster) is the artifact the verifier, the controller's trusted mode
// and tile-assembling clients accept. The signing digest binds the
// witness name, so one witness's signature can never be replayed as
// another's; the collector keeps per-size signature sets, so a witness
// signing two different roots at one size convicts itself with
// self-verifying EquivocationError evidence.
package translog

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/statedir"
)

// cosignSigPrefix domain-separates witness co-signatures from tree-head
// signatures (sthSigPrefix) and every other ECDSA use in the project.
const cosignSigPrefix = "vnfguard-translog-cosign-v1"

// Co-signing errors: the adversarial surface of the quorum protocol,
// each a distinct errors.Is-able verdict.
var (
	// ErrCosignInvalid reports a witness signature that does not verify:
	// forged bytes, a signature replayed under another witness's name
	// (the name is inside the signed digest), or a signature over a
	// different head than the one it is presented with.
	ErrCosignInvalid = errors.New("translog: witness co-signature invalid") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrUnknownWitness reports a co-signature from a name outside the
	// pinned roster.
	ErrUnknownWitness = errors.New("translog: co-signature from witness outside the roster") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrDuplicateWitness reports the same witness appearing twice in
	// one signature set — Q-of-N means Q distinct witnesses.
	ErrDuplicateWitness = errors.New("translog: duplicate witness in co-signature set") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrQuorumNotReached reports a head backed by fewer than Q distinct
	// valid witness co-signatures.
	ErrQuorumNotReached = errors.New("translog: witness co-signature quorum not reached")
	// ErrWitnessEquivocation reports one witness signing two different
	// roots at one tree size; EquivocationError carries the evidence.
	ErrWitnessEquivocation = errors.New("translog: witness equivocation") //lint:allow unusedexport conviction contract: EquivocationError's Unwrap target, matched by auditors with errors.Is
)

// cosignDigest is the SHA-256 a witness co-signature covers: the domain
// prefix, the length-framed witness name, and the head's size and root.
// Binding the name makes cross-witness replay a signature failure, not
// a policy check.
func cosignDigest(witness string, size uint64, root Hash) [sha256.Size]byte {
	buf := make([]byte, 0, len(cosignSigPrefix)+8+len(witness)+8+len(root))
	buf = append(buf, cosignSigPrefix...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(len(witness)))
	buf = append(buf, u64[:]...)
	buf = append(buf, witness...)
	binary.BigEndian.PutUint64(u64[:], size)
	buf = append(buf, u64[:]...)
	buf = append(buf, root[:]...)
	return sha256.Sum256(buf)
}

// WitnessSignature is one witness's co-signature over a tree head.
type WitnessSignature struct {
	// Witness is the signing witness's roster name.
	Witness string `json:"witness"`
	// Size and RootHash name the head the signature covers.
	Size     uint64 `json:"size"`
	RootHash Hash   `json:"root_hash"`
	// Signature is the ASN.1 ECDSA signature over cosignDigest.
	Signature []byte `json:"signature"`
}

// Verify checks the co-signature against the witness's public key.
func (ws WitnessSignature) Verify(pub *ecdsa.PublicKey) error {
	digest := cosignDigest(ws.Witness, ws.Size, ws.RootHash)
	if !ecdsa.VerifyASN1(pub, digest[:], ws.Signature) {
		return fmt.Errorf("%w: signature by %q over size %d does not verify", ErrCosignInvalid, ws.Witness, ws.Size)
	}
	return nil
}

// CosignedHead is the quorum artifact: a log-signed tree head plus the
// witness signature set standing behind it. Verify is what makes it
// one — an unchecked CosignedHead is just bytes.
type CosignedHead struct {
	STH        SignedTreeHead     `json:"sth"`
	Signatures []WitnessSignature `json:"signatures"`
}

// Verify checks the whole artifact: the log signature on the head, then
// every witness signature against the roster — any forged, replayed,
// mismatched or duplicate signature fails the artifact outright — and
// finally that at least roster.Quorum() distinct witnesses signed.
func (ch *CosignedHead) Verify(logPub *ecdsa.PublicKey, roster *WitnessRoster) error {
	if err := ch.STH.Verify(logPub); err != nil {
		return err
	}
	seen := make(map[string]bool, len(ch.Signatures))
	for _, ws := range ch.Signatures {
		if ws.Size != ch.STH.Size || ws.RootHash != ch.STH.RootHash {
			return fmt.Errorf("%w: signature by %q covers a different head (size %d) than the artifact (size %d)",
				ErrCosignInvalid, ws.Witness, ws.Size, ch.STH.Size)
		}
		pub, ok := roster.Key(ws.Witness)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownWitness, ws.Witness)
		}
		if err := ws.Verify(pub); err != nil {
			return err
		}
		if seen[ws.Witness] {
			return fmt.Errorf("%w: %q", ErrDuplicateWitness, ws.Witness)
		}
		seen[ws.Witness] = true
	}
	if len(seen) < roster.Quorum() {
		return fmt.Errorf("%w: %d of %d required co-signatures on head at size %d",
			ErrQuorumNotReached, len(seen), roster.Quorum(), ch.STH.Size)
	}
	return nil
}

// CosignSource yields the newest quorum co-signed head — a
// CosignCollector's Cosigned method or a Client's, depending on whether
// the collector is in-process.
type CosignSource func() (*CosignedHead, error)

// ---- roster ---------------------------------------------------------------

// WitnessRoster pins the witness public keys and the quorum Q a
// deployment requires. Like the partition it is derived once from
// pinned state (the statedir's published witness keys), not discovered
// per verification.
type WitnessRoster struct {
	quorum int
	keys   map[string]*ecdsa.PublicKey
}

// NewWitnessRoster builds a roster requiring quorum distinct signatures
// from the named keys.
func NewWitnessRoster(quorum int, keys map[string]*ecdsa.PublicKey) (*WitnessRoster, error) { //lint:allow unusedexport relying parties pin rosters from out-of-band keys; LoadWitnessRoster is the statedir-discovery convenience over it
	if quorum < 1 || quorum > len(keys) {
		return nil, fmt.Errorf("%w: quorum %d over %d roster keys", ErrPartitionInvalid, quorum, len(keys))
	}
	m := make(map[string]*ecdsa.PublicKey, len(keys))
	for name, pub := range keys {
		if pub == nil {
			return nil, fmt.Errorf("%w: nil key for witness %q", ErrPartitionInvalid, name)
		}
		m[name] = pub
	}
	return &WitnessRoster{quorum: quorum, keys: m}, nil
}

// Quorum returns the required distinct-signature count Q.
func (r *WitnessRoster) Quorum() int { return r.quorum }

// Key returns the public key for witness name.
func (r *WitnessRoster) Key(name string) (*ecdsa.PublicKey, bool) {
	pub, ok := r.keys[name]
	return pub, ok
}

// Names returns the sorted roster names — the ring NewWitnessPartition
// is built over, so roster and partition stay derived from one set.
func (r *WitnessRoster) Names() []string {
	names := make([]string, 0, len(r.keys))
	for name := range r.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ---- witness signing keys -------------------------------------------------

// WitnessKey is a witness's co-signing identity.
type WitnessKey struct {
	name string
	key  *ecdsa.PrivateKey
}

// NewWitnessKey wraps an existing key as witness name's identity.
func NewWitnessKey(name string, key *ecdsa.PrivateKey) *WitnessKey { //lint:allow unusedexport embedders bring HSM/config-held keys; OpenWitnessKey is the statedir convenience over it
	return &WitnessKey{name: name, key: key}
}

// Name returns the roster name the key signs as.
func (wk *WitnessKey) Name() string { return wk.name }

// Public returns the verification half.
func (wk *WitnessKey) Public() *ecdsa.PublicKey { return &wk.key.PublicKey }

// Cosign produces this witness's co-signature over the head.
func (wk *WitnessKey) Cosign(sth SignedTreeHead) (WitnessSignature, error) {
	digest := cosignDigest(wk.name, sth.Size, sth.RootHash)
	sig, err := ecdsa.SignASN1(rand.Reader, wk.key, digest[:])
	if err != nil {
		return WitnessSignature{}, fmt.Errorf("translog: co-signing head: %w", err)
	}
	return WitnessSignature{Witness: wk.name, Size: sth.Size, RootHash: sth.RootHash, Signature: sig}, nil
}

// witnessKeyFile / witnessPubFile are the statedir entries a witness's
// co-signing keypair lives under; the public half matches
// statedir-style discovery so the log server assembles the roster from
// published keys.
func witnessKeyFile(name string) string { return "witness-" + name + "-key.pem" }
func witnessPubFile(name string) string { return "witness-" + name + "-pub.pem" }

// witnessPubPattern matches every published witness co-signing key.
const witnessPubPattern = "witness-*-pub.pem"

// OpenWitnessKey loads witness name's co-signing key from the statedir,
// generating and persisting a fresh P-256 key on first run, and
// (re)publishes the public half for roster discovery.
func OpenWitnessKey(dir *statedir.Dir, name string) (*WitnessKey, error) {
	var key *ecdsa.PrivateKey
	data, err := dir.Read(witnessKeyFile(name))
	switch {
	case err == nil:
		key, err = statedir.ParseKeyPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: persisted witness key: %w", err)
		}
	case errors.Is(err, os.ErrNotExist):
		pem, err := statedir.GenerateKeyPEM()
		if err != nil {
			return nil, err
		}
		if err := dir.Write(witnessKeyFile(name), pem); err != nil {
			return nil, err
		}
		key, err = statedir.ParseKeyPEM(pem)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("translog: reading witness key: %w", err)
	}
	pub, err := statedir.MarshalPubPEM(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	if err := dir.Write(witnessPubFile(name), pub); err != nil {
		return nil, err
	}
	return NewWitnessKey(name, key), nil
}

// WaitForWitnessRoster assembles the roster for a known witness set,
// waiting up to the given patience for each witness to publish its
// co-signing key — the log server's startup path, where the witness
// names come from configuration but the keys belong to the witnesses.
func WaitForWitnessRoster(dir *statedir.Dir, quorum int, names []string, wait time.Duration) (*WitnessRoster, error) {
	keys := make(map[string]*ecdsa.PublicKey, len(names))
	for _, name := range names {
		data, err := dir.WaitFor(witnessPubFile(name), wait)
		if err != nil {
			return nil, fmt.Errorf("translog: waiting for witness %q to publish its co-signing key: %w", name, err)
		}
		pub, err := statedir.ParsePubPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: witness %q co-signing key: %w", name, err)
		}
		keys[name] = pub
	}
	return NewWitnessRoster(quorum, keys)
}

// LoadWitnessRoster assembles the roster from every witness public key
// published in the statedir.
func LoadWitnessRoster(dir *statedir.Dir, quorum int) (*WitnessRoster, error) {
	files, err := dir.Match(witnessPubPattern)
	if err != nil {
		return nil, fmt.Errorf("translog: discovering witness keys: %w", err)
	}
	keys := make(map[string]*ecdsa.PublicKey, len(files))
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(f, "witness-"), "-pub.pem")
		data, err := dir.Read(f)
		if err != nil {
			return nil, fmt.Errorf("translog: reading witness key %s: %w", f, err)
		}
		pub, err := statedir.ParsePubPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: witness key %s: %w", f, err)
		}
		keys[name] = pub
	}
	return NewWitnessRoster(quorum, keys)
}

// ---- equivocation evidence ------------------------------------------------

// EquivocationError is the self-verifying evidence that one witness
// co-signed two different roots at one tree size. Like ConflictError
// for the log, the pair convicts by signature alone: any third party
// holding the witness's published key re-verifies both signatures and
// needs no trust in whoever reported it — which is what lets the
// collector's HTTP 409 carry it across the wire without becoming a
// fabricated-evidence kill switch.
type EquivocationError struct {
	// Witness is the equivocating witness's roster name.
	Witness string
	// A and B are the two co-signatures: same witness, same size,
	// different roots.
	A, B WitnessSignature
}

// Error renders the verdict.
func (e *EquivocationError) Error() string {
	return fmt.Sprintf("%v: witness %q signed roots %x… and %x… at size %d",
		ErrWitnessEquivocation, e.Witness, e.A.RootHash[:4], e.B.RootHash[:4], e.A.Size)
}

// Unwrap lets errors.Is match ErrWitnessEquivocation.
func (e *EquivocationError) Unwrap() error { return ErrWitnessEquivocation }

// Verify re-checks both signatures against the witness's roster key;
// evidence that does not verify proves nothing.
func (e *EquivocationError) Verify(roster *WitnessRoster) error {
	pub, ok := roster.Key(e.Witness)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWitness, e.Witness)
	}
	for _, ws := range []WitnessSignature{e.A, e.B} {
		if ws.Witness != e.Witness {
			return fmt.Errorf("%w: evidence signature attributed to %q", ErrCosignInvalid, ws.Witness)
		}
		if err := ws.Verify(pub); err != nil {
			return fmt.Errorf("translog: equivocation evidence: %w", err)
		}
	}
	return nil
}

// SelfCertifying reports whether the pair alone proves the witness
// equivocated: two verifying signatures by one witness, one size, two
// roots.
func (e *EquivocationError) SelfCertifying(roster *WitnessRoster) bool {
	return e.A.Size == e.B.Size && e.A.RootHash != e.B.RootHash && e.Verify(roster) == nil
}

// ---- collector ------------------------------------------------------------

// maxCosignSizes bounds the per-size signature sets the collector keeps
// in flight; the oldest sub-quorum size is evicted (and counted as a
// quorum failure) when the bound is hit.
const maxCosignSizes = 16

// CosignCollector is the log-server side of the protocol: it
// accumulates witness co-signatures per head, assembles a CosignedHead
// the moment a size reaches quorum, and latches equivocation evidence.
// It is deliberately independent of the Log and its commit lock —
// submissions verify signatures and touch only the collector's own
// mutex, so cosign aggregation can never block a sequencer commit
// (pinned by the partitioned-witness race test).
type CosignCollector struct {
	logPub *ecdsa.PublicKey
	roster *WitnessRoster

	mu    sync.Mutex
	heads map[uint64]SignedTreeHead
	sigs  map[uint64]map[string]WitnessSignature
	best  *CosignedHead
	equiv []*EquivocationError
}

// NewCosignCollector builds a collector verifying heads against the log
// key and co-signatures against the pinned roster.
func NewCosignCollector(logPub *ecdsa.PublicKey, roster *WitnessRoster) *CosignCollector {
	return &CosignCollector{
		logPub: logPub,
		roster: roster,
		heads:  make(map[uint64]SignedTreeHead),
		sigs:   make(map[uint64]map[string]WitnessSignature),
	}
}

// Quorum returns the roster's required signature count.
func (c *CosignCollector) Quorum() int { return c.roster.Quorum() }

// Submit folds in one witness co-signature over a served head and
// returns the distinct-signature count now standing behind that head.
// Forged, replayed, mismatched, unknown-witness and duplicate
// submissions are rejected with their distinct sentinels and never
// touch collector state; a submission revealing two roots at one size
// returns the self-verifying evidence (*ConflictError when the log
// signed both heads, *EquivocationError when one witness signed both).
func (c *CosignCollector) Submit(sth SignedTreeHead, ws WitnessSignature) (int, error) {
	if err := sth.Verify(c.logPub); err != nil {
		return 0, err
	}
	if ws.Size != sth.Size || ws.RootHash != sth.RootHash {
		return 0, fmt.Errorf("%w: signature by %q covers size %d root %x…, submitted head is size %d root %x…",
			ErrCosignInvalid, ws.Witness, ws.Size, ws.RootHash[:4], sth.Size, sth.RootHash[:4])
	}
	pub, ok := c.roster.Key(ws.Witness)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownWitness, ws.Witness)
	}
	if err := ws.Verify(pub); err != nil {
		return 0, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.sigs[sth.Size][ws.Witness]; ok && prev.RootHash != ws.RootHash {
		// This witness already co-signed a DIFFERENT root at this size.
		// The log equivocated too (both heads carry its signature), but
		// the witness-equivocation evidence is strictly stronger — it
		// convicts the witness alongside the log — so it wins over the
		// generic split-view verdict below.
		ee := &EquivocationError{Witness: ws.Witness, A: prev, B: ws}
		c.equiv = append(c.equiv, ee)
		return len(c.sigs[sth.Size]), ee
	}
	if have, ok := c.heads[sth.Size]; ok && have.RootHash != sth.RootHash {
		// The *log* signed two heads at one size: a split view, caught
		// here for free because the collector sees every cosigned head.
		return 0, &ConflictError{Kind: ErrSplitView, Have: have, Got: sth,
			Detail: fmt.Sprintf("co-signing revealed two signed heads at size %d with different roots", sth.Size)}
	}
	if prev, ok := c.sigs[sth.Size][ws.Witness]; ok && prev.RootHash == ws.RootHash {
		return len(c.sigs[sth.Size]), fmt.Errorf("%w: %q already co-signed size %d", ErrDuplicateWitness, ws.Witness, sth.Size)
	}
	if _, ok := c.heads[sth.Size]; !ok {
		c.admitSizeLocked(sth)
	}
	set := c.sigs[sth.Size]
	set[ws.Witness] = ws
	mCosignSignatures.Inc()
	if len(set) >= c.roster.Quorum() && (c.best == nil || sth.Size > c.best.STH.Size) {
		c.best = assembleCosigned(c.heads[sth.Size], set)
		c.pruneBelowLocked(sth.Size)
	}
	return len(set), nil
}

// admitSizeLocked starts tracking a new size, evicting the oldest
// sub-quorum size when the in-flight bound is hit.
func (c *CosignCollector) admitSizeLocked(sth SignedTreeHead) {
	if len(c.heads) >= maxCosignSizes {
		oldest := uint64(0)
		first := true
		for size := range c.heads {
			if first || size < oldest {
				oldest, first = size, false
			}
		}
		delete(c.heads, oldest)
		delete(c.sigs, oldest)
		mCosignQuorumFailures.Inc()
	}
	c.heads[sth.Size] = sth
	c.sigs[sth.Size] = make(map[string]WitnessSignature, c.roster.Quorum())
}

// pruneBelowLocked drops every tracked size below the newly
// quorum-complete one; each dropped size collected signatures but was
// superseded before reaching quorum.
func (c *CosignCollector) pruneBelowLocked(size uint64) {
	for s := range c.heads {
		if s < size {
			delete(c.heads, s)
			delete(c.sigs, s)
			mCosignQuorumFailures.Inc()
		}
	}
}

// assembleCosigned freezes a signature set into the quorum artifact,
// signatures in deterministic (name) order.
func assembleCosigned(sth SignedTreeHead, set map[string]WitnessSignature) *CosignedHead {
	sigs := make([]WitnessSignature, 0, len(set))
	for _, ws := range set {
		sigs = append(sigs, ws)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Witness < sigs[j].Witness })
	return &CosignedHead{STH: sth, Signatures: sigs}
}

// Cosigned returns the newest quorum co-signed head, or an
// ErrQuorumNotReached-wrapped error when no head has reached quorum
// yet. The signature matches CosignSource.
func (c *CosignCollector) Cosigned() (*CosignedHead, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.best == nil {
		return nil, fmt.Errorf("%w: no head has collected %d co-signatures yet", ErrQuorumNotReached, c.roster.Quorum())
	}
	ch := *c.best
	ch.Signatures = append([]WitnessSignature(nil), c.best.Signatures...)
	return &ch, nil
}

// Equivocations returns the latched witness-equivocation evidence.
func (c *CosignCollector) Equivocations() []*EquivocationError {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*EquivocationError(nil), c.equiv...)
}

// ---- quorum-gated credential checking -------------------------------------

// ConsistencyProver produces RFC 6962 consistency proofs between two
// tree sizes — Client and TileAssembler both qualify, so the quorum
// checker runs equally over the consistency endpoint or tile-assembled
// proofs.
type ConsistencyProver interface {
	ConsistencyProof(first, second uint64) ([]Hash, error)
}

// NewQuorumCredentialChecker is NewCredentialChecker with the quorum
// trust model: a credential's proof bundle is accepted only when its
// head is covered by the newest quorum co-signed head — byte-equal to
// it, or consistency-proven into it. A bundle whose head is newer than
// anything Q witnesses have co-signed is refused (ErrQuorumNotReached):
// the log's own signature stopped being sufficient the moment the
// deployment pinned a roster.
func NewQuorumCredentialChecker(pub *ecdsa.PublicKey, roster *WitnessRoster, source ProofSource, proofs ConsistencyProver, cosigned CosignSource) func(*x509.Certificate) error {
	v := &headVerifier{pub: pub}
	return func(cert *x509.Certificate) error {
		pb, err := v.proveCredential(source, cert)
		if err != nil {
			return err
		}
		ch, err := cosigned()
		if err != nil {
			return err
		}
		if err := ch.Verify(pub, roster); err != nil {
			return err
		}
		switch {
		case pb.STH.Size == ch.STH.Size:
			if pb.STH.RootHash != ch.STH.RootHash {
				return &ConflictError{Kind: ErrSplitView, Have: ch.STH, Got: pb.STH,
					Detail: fmt.Sprintf("credential proof head and quorum co-signed head disagree at size %d", pb.STH.Size)}
			}
		case pb.STH.Size < ch.STH.Size:
			proof, err := proofs.ConsistencyProof(pb.STH.Size, ch.STH.Size)
			if err != nil {
				return fmt.Errorf("translog: proving credential head into co-signed head: %w", err)
			}
			if err := VerifyConsistency(pb.STH.Size, ch.STH.Size, pb.STH.RootHash, ch.STH.RootHash, proof); err != nil {
				return &ConflictError{Kind: ErrSplitView, Have: ch.STH, Got: pb.STH,
					Detail: fmt.Sprintf("credential proof head at size %d is not a prefix of the quorum co-signed head at size %d", pb.STH.Size, ch.STH.Size)}
			}
		default:
			return fmt.Errorf("%w: credential proof head at size %d is beyond the newest co-signed head at size %d",
				ErrQuorumNotReached, pb.STH.Size, ch.STH.Size)
		}
		return nil
	}
}
