package enclaveapp

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"vnfguard/internal/pki"
	"vnfguard/internal/secchan"
)

// handshake is what the echo server saw of one client handshake.
type handshake struct {
	resumed bool
	serial  string
}

// handshakeLog records the echo server's handshakes.
type handshakeLog struct {
	mu  sync.Mutex
	all []handshake
}

func (l *handshakeLog) record(cs tls.ConnectionState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(l.all, handshake{resumed: cs.DidResume, serial: cs.PeerCertificates[0].SerialNumber.String()})
}

func (l *handshakeLog) last() handshake {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.all[len(l.all)-1]
}

// echoOnce opens an in-enclave TLS session, echoes one message through
// it and closes it. Reading the echo also takes in the session ticket the
// server sends after the handshake.
func echoOnce(ce *CredentialEnclave, addr string) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	conn, err := ce.DialTLS(raw, "controller")
	if err != nil {
		raw.Close()
		return err
	}
	defer conn.Close()
	msg := []byte("flow-mod")
	if _, err := conn.Write(msg); err != nil {
		return err
	}
	_, err = io.ReadFull(conn, make([]byte, len(msg)))
	return err
}

// resumeFixture is a provisioned credential enclave and a ticket-issuing
// echo server recording its handshakes.
type resumeFixture struct {
	ce   *CredentialEnclave
	ca   *pki.CA
	vm   *vmSide
	addr string
	hs   *handshakeLog
}

func newResumeFixture(t *testing.T) *resumeFixture {
	t.Helper()
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rf := &resumeFixture{ce: ce, ca: ca, vm: runEnrollment(t, fx, ce), hs: &handshakeLog{}}
	addr, stop := startTLSServer(t, ca, rf.hs.record)
	t.Cleanup(stop)
	rf.addr = addr
	return rf
}

// expect echoes once and checks the handshake the server saw.
func (rf *resumeFixture) expect(t *testing.T, resumed bool, cert *x509.Certificate) {
	t.Helper()
	if err := echoOnce(rf.ce, rf.addr); err != nil {
		t.Fatal(err)
	}
	got, want := rf.hs.last(), handshake{resumed: resumed, serial: cert.SerialNumber.String()}
	if got != want {
		t.Fatalf("handshake = %+v, want %+v", got, want)
	}
}

func TestFullSessionTLSResumes(t *testing.T) {
	rf := newResumeFixture(t)
	cert := provision(t, rf.vm, rf.ce, rf.ca, "vnf-tls", ModeVMGenerated)
	rf.expect(t, false, cert)
	rf.expect(t, true, cert)
	rf.expect(t, true, cert)
}

// TestTicketsDieWithTheCredential pins that a resumption secret never
// outlives the certificate it was issued to: provisioning and the revoke
// wipe both leave the enclave without tickets.
func TestTicketsDieWithTheCredential(t *testing.T) {
	rf := newResumeFixture(t)
	first := provision(t, rf.vm, rf.ce, rf.ca, "vnf-tls", ModeVMGenerated)
	rf.expect(t, false, first)
	rf.expect(t, true, first)

	// Re-provisioning: the first connection is a full handshake under the
	// new certificate, and later ones resume its session.
	second := provision(t, rf.vm, rf.ce, rf.ca, "vnf-tls", ModeCSR)
	rf.expect(t, false, second)
	rf.expect(t, true, second)

	// The wipe drops the key and the tickets together.
	frame, err := rf.vm.codec.Seal(secchan.TypeRevoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := rf.ce.HandleFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if typ, _, err := rf.vm.codec.Open(respFrame); err != nil || typ != secchan.TypeAck {
		t.Fatalf("revoke failed: type=%d err=%v", typ, err)
	}
	rf.ce.tlsMu.Lock()
	_, held := rf.ce.tickets.Get("controller")
	rf.ce.tlsMu.Unlock()
	if held {
		t.Fatal("wiped enclave still holds a session ticket")
	}
	if err := echoOnce(rf.ce, rf.addr); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("dial after wipe: %v, want ErrNotProvisioned", err)
	}
	third := provision(t, rf.vm, rf.ce, rf.ca, "vnf-tls", ModeVMGenerated)
	rf.expect(t, false, third)
}

// TestConcurrentDialTLSAcrossReprovisioning runs in-enclave handshakes
// on several goroutines, sharing the ticket cache, while the enclave is
// re-provisioned under the same key with a new certificate (run with
// -race). Every handshake succeeds, and once provisioning has returned a
// connection presents the new certificate, resumed or not.
func TestConcurrentDialTLSAcrossReprovisioning(t *testing.T) {
	rf := newResumeFixture(t)
	key, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pkcs8, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	issue := func() *ProvisionPayload {
		csr, err := pki.CreateCSR("vnf-tls", key)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := rf.ca.SignClientCSR(csr, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return &ProvisionPayload{Mode: ModeVMGenerated, KeyPKCS8: pkcs8, CertDER: cert.Raw, CADER: rf.ca.Certificate().Raw}
	}
	sendProvision(t, rf.vm, rf.ce, issue())
	if err := echoOnce(rf.ce, rf.addr); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 6
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := echoOnce(rf.ce, rf.addr); err != nil {
					errs <- err
				}
			}
		}()
	}
	next := issue()
	sendProvision(t, rf.vm, rf.ce, next)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cert, err := x509.ParseCertificate(next.CertDER)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := echoOnce(rf.ce, rf.addr); err != nil {
			t.Fatal(err)
		}
		if got := rf.hs.last().serial; got != cert.SerialNumber.String() {
			t.Fatalf("connection after re-provisioning presented serial %s, want %s", got, cert.SerialNumber)
		}
	}
}
