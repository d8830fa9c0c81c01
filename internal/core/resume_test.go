package core

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vnfguard/internal/controller"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/verifier"
	"vnfguard/internal/vnf"
)

// handshakeCounts reads the controller's handshake counters.
func handshakeCounts() (full, resumed uint64) {
	c := func(kind string) uint64 {
		return obs.Default().Counter("controller_tls_handshakes_total", "", "kind", kind).Value()
	}
	return c("full"), c("resumed")
}

// enrolledInstance attests host 0, enrolls fw-1 and connects it to url
// from its credential enclave, with the whole TLS session inside.
func enrolledInstance(t *testing.T, d *Deployment, url string) (*vnf.Instance, *verifier.Enrollment) {
	t.Helper()
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	return connectInstance(t, d, url), enr
}

func connectInstance(t *testing.T, d *Deployment, url string) *vnf.Instance {
	t.Helper()
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := vnf.NewInstance(StandardFirewall("fw-1"), ce, url, ServerName, DefaultEnv(), enclaveapp.TLSFullSession)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Client().CloseIdle)
	return inst
}

// freshRequest makes one request over a fresh connection and closes it.
func freshRequest(inst *vnf.Instance) error {
	defer inst.Client().CloseIdle()
	_, err := inst.Client().Summary()
	return err
}

// expectHandshake makes one request over a fresh connection, requires it
// to succeed, and checks which kind of handshake the controller counted.
func expectHandshake(t *testing.T, inst *vnf.Instance, resumed bool) {
	t.Helper()
	full0, res0 := handshakeCounts()
	if err := freshRequest(inst); err != nil {
		t.Fatalf("request over a fresh connection: %v", err)
	}
	full1, res1 := handshakeCounts()
	want := [2]uint64{1, 0}
	if resumed {
		want = [2]uint64{0, 1}
	}
	if got := [2]uint64{full1 - full0, res1 - res0}; got != want {
		t.Fatalf("handshakes counted {full, resumed} = %v, want %v", got, want)
	}
}

// expectRefusedResumption makes one request over a fresh connection,
// which must attempt a resumption and be refused at the handshake rather
// than by the per-request 403.
func expectRefusedResumption(t *testing.T, inst *vnf.Instance) {
	t.Helper()
	full0, res0 := handshakeCounts()
	err := freshRequest(inst)
	if err == nil {
		t.Fatal("resumed handshake accepted")
	}
	if strings.Contains(err.Error(), "status 403") {
		t.Fatalf("refused by the request handler, not at the handshake: %v", err)
	}
	full1, res1 := handshakeCounts()
	if full1 != full0 || res1 != res0+1 {
		t.Fatalf("handshakes counted {full, resumed} = {%d, %d}, want one refused resumption", full1-full0, res1-res0)
	}
}

// TestVNFResumesControllerSession: a VNF's second connection resumes the
// session of its first, and its requests succeed.
func TestVNFResumesControllerSession(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA, TLSMode: enclaveapp.TLSFullSession,
	})
	inst, _ := enrolledInstance(t, d, d.ControllerURL())
	expectHandshake(t, inst, false)
	expectHandshake(t, inst, true)
	if err := inst.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Deactivate(); err != nil {
		t.Fatal(err)
	}
	expectHandshake(t, inst, true)
}

// TestRevokedUnwipedVNFRefusedOnResumption revokes a VNF whose host agent
// is gone, so the enclave keeps its key and its session tickets. Its next
// connection resumes and must be refused at the handshake; a connection
// kept alive across the revocation still gets the per-request 403.
func TestRevokedUnwipedVNFRefusedOnResumption(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA, TLSMode: enclaveapp.TLSFullSession,
		HTTPTransports: true,
	})
	inst, _ := enrolledInstance(t, d, d.ControllerURL())
	expectHandshake(t, inst, false)
	expectHandshake(t, inst, true)
	live := connectInstance(t, d, d.ControllerURL())
	if _, err := live.Client().Summary(); err != nil {
		t.Fatal(err)
	}

	for _, srv := range d.AgentServers() {
		srv.Close()
	}
	err := d.VM.RevokeVNF("fw-1")
	if err == nil || !strings.Contains(err.Error(), "certificate revoked anyway") {
		t.Fatalf("revoke with the host agent gone: %v", err)
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ce.Certificate(); err != nil {
		t.Fatalf("enclave lost its credential without the wipe: %v", err)
	}

	expectRefusedResumption(t, inst)
	if _, err := live.Client().Summary(); err == nil || !strings.Contains(err.Error(), "status 403") {
		t.Fatalf("revoked VNF's live connection: got %v, want status 403", err)
	}
}

// observedServer is a second controller endpoint over a deployment's
// controller whose trusted-HTTPS checks wrap the deployment's own: a test
// sees the serial every handshake presented and can make a check fail.
type observedServer struct {
	*controller.Server
	failRevoked, failLog atomic.Bool

	mu      sync.Mutex
	serials []string
}

var errInjected = errors.New("injected check failure")

func serveObserved(t *testing.T, d *Deployment, trust controller.TrustModel) *observedServer {
	t.Helper()
	key, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := d.VM.IssueControllerCert(ServerName, []string{ServerName}, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	o := &observedServer{}
	revoked, logged := d.VM.RevocationChecker(), d.VM.CredentialChecker()
	cfg := controller.ServerConfig{
		Mode:  controller.ModeTrustedHTTPS,
		Trust: trust,
		Cert:  tls.Certificate{Certificate: [][]byte{cert.Raw}, PrivateKey: key},
		Revoked: func(c *x509.Certificate) error {
			if o.failRevoked.Load() {
				return errInjected
			}
			return revoked(c)
		},
		// The log check runs only at handshakes, so it sees each
		// handshake's leaf once.
		CredentialLog: func(c *x509.Certificate) error {
			o.mu.Lock()
			o.serials = append(o.serials, c.SerialNumber.String())
			o.mu.Unlock()
			if o.failLog.Load() {
				return errInjected
			}
			return logged(c)
		},
	}
	if trust == controller.TrustCA {
		cfg.ClientCAs = d.VM.CA().Pool()
	}
	o.Server, err = controller.Serve(d.Ctrl, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

// lastSerial is the serial the last handshake presented.
func (o *observedServer) lastSerial() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.serials) == 0 {
		return ""
	}
	return o.serials[len(o.serials)-1]
}

// TestReenrollAfterRevokeStartsFullHandshake: after a revoke and a fresh
// enrollment, the VNF's first connection is a full handshake presenting
// the new certificate, never a resumption of the revoked one's session.
func TestReenrollAfterRevokeStartsFullHandshake(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA, TLSMode: enclaveapp.TLSFullSession,
	})
	o := serveObserved(t, d, controller.TrustCA)
	inst, old := enrolledInstance(t, d, o.URL())
	expectHandshake(t, inst, false)
	expectHandshake(t, inst, true)
	if err := d.VM.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if enr.Serial == old.Serial {
		t.Fatalf("re-enrollment reissued serial %s", old.Serial)
	}
	expectHandshake(t, inst, false)
	if got := o.lastSerial(); got != enr.Serial {
		t.Fatalf("controller saw serial %s, want the new %s", got, enr.Serial)
	}
	expectHandshake(t, inst, true)
	if got := o.lastSerial(); got != enr.Serial {
		t.Fatalf("resumed handshake presented serial %s, want %s", got, enr.Serial)
	}
}

// TestKeystoreResumptionRunsEveryCheck: under TrustKeystore a resumed
// handshake still runs the pin, revocation and log-inclusion checks —
// each one, failing on its own, refuses the resumption.
func TestKeystoreResumptionRunsEveryCheck(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustKeystore, TLSMode: enclaveapp.TLSFullSession,
	})
	o := serveObserved(t, d, controller.TrustKeystore)
	inst, enr := enrolledInstance(t, d, o.URL())
	o.PinCertificate(enr.Cert)
	expectHandshake(t, inst, false)
	expectHandshake(t, inst, true)

	breaks := []struct {
		check      string
		fail, mend func()
	}{
		{"pin", func() { o.UnpinCertificate(enr.Cert) }, func() { o.PinCertificate(enr.Cert) }},
		{"revocation", func() { o.failRevoked.Store(true) }, func() { o.failRevoked.Store(false) }},
		{"log inclusion", func() { o.failLog.Store(true) }, func() { o.failLog.Store(false) }},
	}
	for _, b := range breaks {
		t.Run(b.check, func(t *testing.T) {
			b.fail()
			expectRefusedResumption(t, inst)
			b.mend()
			expectHandshake(t, inst, true)
		})
	}
}

// TestFailingCredentialLogRefusesResumption: under TrustCA, a log source
// that starts failing refuses resumed handshakes too.
func TestFailingCredentialLogRefusesResumption(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA, TLSMode: enclaveapp.TLSFullSession,
	})
	o := serveObserved(t, d, controller.TrustCA)
	inst, enr := enrolledInstance(t, d, o.URL())
	expectHandshake(t, inst, false)
	expectHandshake(t, inst, true)
	o.failLog.Store(true)
	expectRefusedResumption(t, inst)
	if got := o.lastSerial(); got != enr.Serial {
		t.Fatalf("log check saw serial %s, want %s", got, enr.Serial)
	}
}
