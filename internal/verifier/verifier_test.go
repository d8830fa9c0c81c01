package verifier

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/host"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
)

// deployment wires issuer, IAS, a host and a Manager — the full trust
// fabric minus the controller.
type deployment struct {
	issuer *epid.Issuer
	iasSvc *ias.Service
	vendor *ecdsa.PrivateKey
	h      *host.Host
	m      *Manager
	model  *simtime.CostModel
	// ias counts (and can fail) the Manager's calls to IAS.
	ias *countingIAS
}

type deployOpts struct {
	enableTPM       bool
	requireTPM      bool
	provMode        enclaveapp.ProvisionMode
	attestationCode string
	// ca and logDir let restart tests share a CA and a durable
	// transparency log across two Manager lifetimes; logStore tunes the
	// store (per-host sharding included).
	ca       *pki.CA
	logDir   string
	logStore translog.StoreConfig
}

func newDeployment(t *testing.T, opts deployOpts) *deployment {
	t.Helper()
	issuer, err := epid.NewIssuer(500)
	if err != nil {
		t.Fatal(err)
	}
	iasSvc, err := ias.NewService(issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	model := simtime.ZeroCosts()
	vendor, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vmKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultPolicy()
	policy.RequireTPM = opts.requireTPM
	iasC := &countingIAS{QuoteVerifier: &ias.DirectClient{Service: iasSvc, Model: model}}
	m, err := New(Config{
		Name: "vm", Key: vmKey, SPID: sgx.SPID{9},
		IAS:           iasC,
		Policy:        policy,
		ProvisionMode: opts.provMode,
		CA:            opts.ca,
		LogDir:        opts.logDir,
		LogStore:      opts.logStore,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := host.New(host.Config{
		Name: "host-a", Issuer: issuer, Model: model,
		VendorKey: vendor, VMPub: m.PublicKey(), SPID: sgx.SPID{9},
		EnableTPM: opts.enableTPM, AttestationCode: opts.attestationCode,
	})
	if err != nil {
		t.Fatal(err)
	}
	var aik *ecdsa.PublicKey
	if h.HasTPM() {
		aik = h.TPM().AIKPublic()
	}
	m.RegisterHost("host-a", h, aik)
	m.PinAttestationMeasurement(h.AttestationEnclaveIdentity().MRENCLAVE)
	credMR, err := enclaveapp.ExpectedCredentialMeasurement(vendor, m.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	m.PinCredentialMeasurement(credMR)
	return &deployment{issuer: issuer, iasSvc: iasSvc, vendor: vendor, h: h, m: m, model: model, ias: iasC}
}

func vnfImage() *host.Image {
	return &host.Image{
		Name: "vnf-firewall", Tag: "1.0",
		Entrypoint: "/usr/bin/firewall",
		Layers:     []host.Layer{{Files: map[string][]byte{"/usr/bin/firewall": []byte("fw v1")}}},
	}
}

// deployAndLearn runs a container and records the resulting IML as golden.
func (d *deployment) deployAndLearn(t *testing.T, vnf string) {
	t.Helper()
	if _, err := d.h.RunContainer(vnfImage(), vnf); err != nil {
		t.Fatal(err)
	}
	if err := d.m.LearnHostGolden("host-a"); err != nil {
		t.Fatal(err)
	}
}

func TestHostAttestationTrusted(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if !app.Trusted {
		t.Fatalf("findings: %v", app.Findings)
	}
	if app.QuoteStatus != ias.StatusOK {
		t.Fatalf("quote status = %s", app.QuoteStatus)
	}
	if app.IMLEntries < 2 {
		t.Fatalf("IML entries = %d", app.IMLEntries)
	}
	if !d.m.HostTrusted("host-a") {
		t.Fatal("host not marked trusted")
	}
}

func TestHostAttestationDetectsTamperedBinary(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	// Compromise after the golden run.
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("backdoored"))
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("tampered host trusted")
	}
	found := false
	for _, f := range app.Findings {
		if strings.Contains(f, "not in golden database") || strings.Contains(f, "hash mismatch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings: %v", app.Findings)
	}
}

func TestHostAttestationDetectsTamperedEnclave(t *testing.T) {
	d := newDeployment(t, deployOpts{attestationCode: "evil attestation build"})
	d.deployAndLearn(t, "fw-1")
	// The manager pinned the *launched* identity in newDeployment; re-pin
	// the canonical one to model the real deployment where the golden
	// value comes from the build system, not the (compromised) host.
	canonical, err := enclaveapp.ExpectedAttestationMeasurement(d.vendor)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Name: "vm2", SPID: sgx.SPID{9},
		IAS: &ias.DirectClient{Service: d.iasSvc, Model: d.model}})
	if err != nil {
		t.Fatal(err)
	}
	m2.RegisterHost("host-a", d.h, nil)
	m2.PinAttestationMeasurement(canonical)
	m2.GoldenIMA().AllowUnknown = true
	app, err := m2.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("tampered attestation enclave trusted")
	}
}

func TestHostAttestationDetectsRevokedPlatform(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.iasSvc.RevokePlatformKey(d.h.Platform().EPIDMember().PseudonymSecret())
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("revoked platform trusted")
	}
	if app.QuoteStatus != ias.StatusKeyRevoked {
		t.Fatalf("quote status = %s", app.QuoteStatus)
	}
}

func TestAttestUnknownHost(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	if _, err := d.m.AttestHost("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("got %v", err)
	}
}

func TestTPMRequiredPolicy(t *testing.T) {
	// TPM-backed host passes; the appraisal records hardware rooting.
	d := newDeployment(t, deployOpts{enableTPM: true, requireTPM: true})
	d.deployAndLearn(t, "fw-1")
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if !app.Trusted || !app.TPMVerified {
		t.Fatalf("app = %+v", app)
	}
}

func TestTPMDetectsIMLRewrite(t *testing.T) {
	d := newDeployment(t, deployOpts{enableTPM: true, requireTPM: true})
	d.deployAndLearn(t, "fw-1")
	// §4 adversary: root rewrites the software IML to the golden state
	// after running malware.
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("malware"))
	text, _ := d.h.IMA().Snapshot()
	_ = text
	// Forge a clean list: re-learn from a fresh identical host.
	clean := newDeployment(t, deployOpts{enableTPM: true})
	clean.deployAndLearn(t, "fw-1")
	cleanText, _ := clean.h.IMA().Snapshot()
	cleanList, err := ima.ParseList(cleanText)
	if err != nil {
		t.Fatal(err)
	}
	d.h.IMA().TamperList(cleanList)

	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("IML rewrite undetected under TPM policy")
	}
	hasTPMFinding := false
	for _, f := range app.Findings {
		if strings.Contains(f, "TPM") || strings.Contains(f, "PCR") {
			hasTPMFinding = true
		}
	}
	if !hasTPMFinding {
		t.Fatalf("findings: %v", app.Findings)
	}
}

// Without a TPM the same rewrite goes unnoticed — exactly the limitation
// §4 of the paper states. This test documents the gap.
func TestSoftwareOnlyMissesIMLRewrite(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("malware"))
	clean := newDeployment(t, deployOpts{})
	clean.deployAndLearn(t, "fw-1")
	// Forge: replace the IML with the (differently-booted) clean host's
	// golden entries for the same content; rebuild it from this host's
	// own pre-tamper state instead for an exact forgery.
	pre, _ := d.h.IMA().Snapshot()
	_ = pre
	// Reconstruct the pre-tamper list textually: drop the last line.
	lines := strings.Split(strings.TrimSpace(pre), "\n")
	forged := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	forgedList, err := ima.ParseList(forged)
	if err != nil {
		t.Fatal(err)
	}
	d.h.IMA().TamperList(forgedList)
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if !app.Trusted {
		t.Fatalf("expected the software-only gap (trusted), got findings: %v", app.Findings)
	}
}

func TestEnrollVNFHappyPath(t *testing.T) {
	for _, mode := range []enclaveapp.ProvisionMode{enclaveapp.ModeVMGenerated, enclaveapp.ModeCSR} {
		t.Run(string(mode), func(t *testing.T) {
			d := newDeployment(t, deployOpts{provMode: mode})
			d.deployAndLearn(t, "fw-1")
			if _, err := d.m.AttestHost("host-a"); err != nil {
				t.Fatal(err)
			}
			enr, err := d.m.EnrollVNF("host-a", "fw-1")
			if err != nil {
				t.Fatal(err)
			}
			if enr.Cert.Subject.CommonName != "fw-1" {
				t.Fatalf("CN = %q", enr.Cert.Subject.CommonName)
			}
			if err := d.m.CA().VerifyClient(enr.Cert); err != nil {
				t.Fatal(err)
			}
			// The enclave is provisioned and can authenticate to the VM.
			ce, err := d.h.CredentialEnclave("fw-1")
			if err != nil {
				t.Fatal(err)
			}
			mac, err := ce.HMAC([]byte("heartbeat"))
			if err != nil {
				t.Fatal(err)
			}
			if !d.m.VerifyVNFMAC("fw-1", []byte("heartbeat"), mac) {
				t.Fatal("HMAC verification failed")
			}
			if d.m.VerifyVNFMAC("fw-1", []byte("tampered"), mac) {
				t.Fatal("HMAC forgery accepted")
			}
		})
	}
}

func TestEnrollRequiresTrustedHost(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	// Never attested → not trusted.
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); !errors.Is(err, ErrHostNotTrusted) {
		t.Fatalf("got %v", err)
	}
	// Attested but compromised → not trusted.
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("rootkit"))
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); !errors.Is(err, ErrHostNotTrusted) {
		t.Fatalf("got %v", err)
	}
}

func TestEnrollRejectsForeignCredentialEnclave(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	// Clear the pinned credential measurement: the enclave's identity is
	// now unexpected.
	d.m.mu.Lock()
	d.m.expectCred = map[sgx.Measurement]bool{}
	d.m.mu.Unlock()
	_, err := d.m.EnrollVNF("host-a", "fw-1")
	if err == nil || !strings.Contains(err.Error(), "unexpected enclave measurement") {
		t.Fatalf("got %v", err)
	}
}

func TestEnrollUnknownVNF(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.EnrollVNF("host-a", "ghost"); err == nil {
		t.Fatal("unknown VNF enrolled")
	}
}

func TestDoubleEnrollRejected(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); !errors.Is(err, ErrAlreadyEnrolled) {
		t.Fatalf("got %v", err)
	}
}

// TestConcurrentEnrollOneVNF: concurrent enrollments of one VNF yield
// exactly one credential. The others are refused with
// ErrAlreadyEnrolled by the in-flight reservation, not by whichever RA
// step they happen to collide in, and the log records one enrollment.
func TestConcurrentEnrollOneVNF(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = d.m.EnrollVNF("host-a", "fw-1")
		}(i)
	}
	close(start)
	wg.Wait()
	ok, refused := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrAlreadyEnrolled):
			refused++
		default:
			t.Errorf("enroll: %v, want nil or ErrAlreadyEnrolled", err)
		}
	}
	if ok != 1 || refused != callers-1 {
		t.Fatalf("%d enrolled, %d refused as duplicates; want 1 and %d", ok, refused, callers-1)
	}
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	log := d.m.TransparencyLog()
	enrolls := 0
	for _, e := range log.Entries(0, log.Size()) {
		if e.Type == translog.EntryEnroll && e.Actor == "fw-1" {
			enrolls++
		}
	}
	if enrolls != 1 {
		t.Fatalf("%d EntryEnroll entries for fw-1, want 1", enrolls)
	}
}

func TestRevokeVNF(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	enr, err := d.m.EnrollVNF("host-a", "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	// Certificate revoked at the CA.
	if !d.m.CA().IsRevoked(enr.Cert.SerialNumber) {
		t.Fatal("certificate not revoked")
	}
	// Enclave wiped.
	ce, err := d.h.CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ce.Certificate(); err == nil {
		t.Fatal("enclave still holds credentials after revocation")
	}
	// Enrollment gone.
	if _, err := d.m.Enrollment("fw-1"); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("got %v", err)
	}
	if err := d.m.RevokeVNF("fw-1"); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("double revoke: %v", err)
	}
}

func TestAppraisalFreshness(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.m.policy.ReattestAfter = time.Millisecond
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if d.m.HostTrusted("host-a") {
		t.Fatal("stale appraisal still trusted")
	}
}

func TestNonceSingleUse(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	n := d.m.NewNonce()
	if !d.m.consumeNonce(n) {
		t.Fatal("fresh nonce rejected")
	}
	if d.m.consumeNonce(n) {
		t.Fatal("nonce consumed twice")
	}
}

func TestEnrollmentsListing(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.h.RunContainer(vnfImage(), "fw-2")
	if err := d.m.LearnHostGolden("host-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	for _, vnf := range []string{"fw-1", "fw-2"} {
		if _, err := d.m.EnrollVNF("host-a", vnf); err != nil {
			t.Fatalf("%s: %v", vnf, err)
		}
	}
	list := d.m.Enrollments()
	if len(list) != 2 || list[0].VNF != "fw-1" || list[1].VNF != "fw-2" {
		t.Fatalf("enrollments = %+v", list)
	}
	hosts := d.m.Hosts()
	if len(hosts) != 1 || !hosts[0].Trusted {
		t.Fatalf("hosts = %+v", hosts)
	}
}
