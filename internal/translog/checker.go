package translog

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"fmt"
	"sync/atomic"
)

// ProofSource supplies credential proof bundles: the in-process *Log or
// the HTTP *Client both qualify, so the controller can sit next to the VM
// or audit a remote log server with the same hook.
type ProofSource interface {
	ProveSerial(serial string) (*ProofBundle, error)
}

// headVerifier verifies signed tree heads under one log key and
// remembers the last head whose signature verified. A credential check
// runs on every controller handshake while the head only changes when the
// log commits, so most checks see the head they saw last time and skip
// its ECDSA verification. A head is the memoised one only when its size,
// root, timestamp and signature bytes are all equal.
type headVerifier struct {
	pub  *ecdsa.PublicKey
	last atomic.Pointer[SignedTreeHead]
}

func (v *headVerifier) verify(sth SignedTreeHead) error {
	if last := v.last.Load(); last != nil && last.Size == sth.Size && last.RootHash == sth.RootHash &&
		last.Timestamp == sth.Timestamp && bytes.Equal(last.Signature, sth.Signature) {
		return nil
	}
	if err := sth.Verify(v.pub); err != nil {
		return err
	}
	sth.Signature = bytes.Clone(sth.Signature)
	v.last.Store(&sth)
	return nil
}

// proveCredential fetches the proof bundle for cert's serial and checks
// it end to end: tree-head signature, the entry's inclusion under that
// head, and that the entry is an issuance of this very serial.
func (v *headVerifier) proveCredential(source ProofSource, cert *x509.Certificate) (*ProofBundle, error) {
	serial := cert.SerialNumber.String()
	pb, err := source.ProveSerial(serial)
	if err != nil {
		return nil, fmt.Errorf("translog: credential %s: %w", serial, err)
	}
	if err := v.verify(pb.STH); err != nil {
		return nil, fmt.Errorf("translog: credential %s: %w", serial, err)
	}
	if err := pb.verifyInclusion(); err != nil {
		return nil, fmt.Errorf("translog: credential %s: %w", serial, err)
	}
	if pb.Entry.Serial != serial || (pb.Entry.Type != EntryEnroll && pb.Entry.Type != EntryProvision) {
		return nil, fmt.Errorf("%w: proof bundle does not cover serial %s", ErrNotLogged, serial)
	}
	return pb, nil
}

// NewCredentialChecker returns the controller-side gate for trusted-HTTPS
// mode: given a presented client certificate, it demands a verifiable
// inclusion proof that the Verification Manager logged the credential's
// issuance, and rejects certificates the VM never logged — even ones
// correctly signed by the CA. This closes the "trusted oracle" gap: a
// compromised VM (or stolen CA key) can still mint certificates, but it
// cannot use them against the controller without committing evidence to
// the append-only log. The checker is safe for concurrent use.
func NewCredentialChecker(pub *ecdsa.PublicKey, source ProofSource) func(*x509.Certificate) error {
	v := &headVerifier{pub: pub}
	return func(cert *x509.Certificate) error {
		_, err := v.proveCredential(source, cert)
		return err
	}
}
