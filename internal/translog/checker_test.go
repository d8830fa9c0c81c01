package translog

import (
	"errors"
	"sync"
	"testing"
)

// tamperSource hands out the wrapped source's bundles after passing each
// through tamper, when set.
type tamperSource struct {
	src    ProofSource
	tamper func(*ProofBundle)
}

func (s *tamperSource) ProveSerial(serial string) (*ProofBundle, error) {
	pb, err := s.src.ProveSerial(serial)
	if err == nil && s.tamper != nil {
		s.tamper(pb)
	}
	return pb, err
}

// TestCredentialCheckerMemoisedHeadStillVerified pins that memoising the
// last verified tree head never lets a forged head through: once a good
// head is memoised, a head differing from it only in one signature bit
// or in its timestamp is still refused with ErrBadSTH, and the inclusion
// proof is still checked under the memoised head.
func TestCredentialCheckerMemoisedHeadStillVerified(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i, serial := range []string{"77", "78"} {
		if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: int64(i + 1), Actor: "fw-" + serial, Serial: serial}); err != nil {
			t.Fatal(err)
		}
	}
	src := &tamperSource{src: l}
	check := NewCredentialChecker(&key.PublicKey, src)
	if err := check(certWithSerial(77)); err != nil {
		t.Fatalf("logged credential rejected: %v", err)
	}

	cases := []struct {
		name   string
		tamper func(*ProofBundle)
		want   error
	}{
		{"flipped signature bit", func(pb *ProofBundle) {
			pb.STH.Signature = append([]byte(nil), pb.STH.Signature...)
			pb.STH.Signature[len(pb.STH.Signature)/2] ^= 1
		}, ErrBadSTH},
		{"different timestamp", func(pb *ProofBundle) { pb.STH.Timestamp++ }, ErrBadSTH},
		{"forged inclusion proof", func(pb *ProofBundle) {
			pb.Proof = append([]Hash(nil), pb.Proof...)
			pb.Proof[0][0] ^= 1
		}, ErrProofInvalid},
	}
	for _, c := range cases {
		src.tamper = c.tamper
		if err := check(certWithSerial(77)); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		src.tamper = nil
		if err := check(certWithSerial(77)); err != nil {
			t.Fatalf("after %s: logged credential rejected: %v", c.name, err)
		}
	}
}

// TestQuorumCheckerRefusesForgedHead runs the flipped-signature case
// through the quorum checker, which shares the memoising head verifier.
func TestQuorumCheckerRefusesForgedHead(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	src := &tamperSource{src: l, tamper: func(pb *ProofBundle) {
		pb.STH.Signature = append([]byte(nil), pb.STH.Signature...)
		pb.STH.Signature[0] ^= 1
	}}
	cosigned := func() (*CosignedHead, error) { return nil, errors.New("cosigned head not reached") }
	check := NewQuorumCredentialChecker(&key.PublicKey, nil, src, nil, cosigned)
	if err := check(certWithSerial(77)); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("got %v, want ErrBadSTH", err)
	}
}

// TestCredentialCheckerConcurrent shares one checker across goroutines
// while the log commits new heads, so the memoised head is replaced
// under concurrent reads (run with -race).
func TestCredentialCheckerConcurrent(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	check := NewCredentialChecker(&key.PublicKey, l)
	const workers, rounds = 4, 50
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := check(certWithSerial(77)); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if _, err := l.Append(Entry{Type: EntryAttestOK, Timestamp: int64(i + 2), Actor: "host-0", Host: "host-0"}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := check(certWithSerial(78)); err == nil {
		t.Fatal("unlogged credential accepted")
	}
}
