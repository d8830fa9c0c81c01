package verifier

import (
	"crypto/sha256"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vnfguard/internal/epid"
	"vnfguard/internal/ias"
	"vnfguard/internal/translog"
)

var errSigRLDown = errors.New("sigrl endpoint down")

// countingIAS counts the Manager's IAS calls and fails SigRL fetches while
// failSigRL is set.
type countingIAS struct {
	ias.QuoteVerifier
	reports, sigRLs atomic.Int64
	failSigRL       atomic.Bool
}

func (c *countingIAS) VerifyQuote(quote []byte, nonce string) (*ias.AVR, error) {
	c.reports.Add(1)
	return c.QuoteVerifier.VerifyQuote(quote, nonce)
}

func (c *countingIAS) SigRL(gid epid.GroupID) ([][32]byte, error) {
	c.sigRLs.Add(1)
	if c.failSigRL.Load() {
		return nil, errSigRLDown
	}
	return c.QuoteVerifier.SigRL(gid)
}

// expectCalls checks the IAS calls made since the last check.
func (c *countingIAS) expectCalls(t *testing.T, step string, reports, sigRLs int64) {
	t.Helper()
	if r, s := c.reports.Swap(0), c.sigRLs.Swap(0); r != reports || s != sigRLs {
		t.Fatalf("%s: %d reports and %d SigRL fetches, want %d and %d", step, r, s, reports, sigRLs)
	}
}

func (d *deployment) storedSigRL() *groupSigRL {
	d.m.mu.Lock()
	defer d.m.mu.Unlock()
	return d.m.hosts["host-a"].sigRL
}

func TestAttestHostFetchesSigRLForEnrollment(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.deployAndLearn(t, "fw-2")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "AttestHost", 1, 1)
	if rl := d.storedSigRL(); rl == nil || rl.gid != d.h.Platform().GID() {
		t.Fatalf("stored SigRL = %+v, want one for the platform's group %d", rl, d.h.Platform().GID())
	}
	for _, vnf := range []string{"fw-1", "fw-2"} {
		if _, err := d.m.EnrollVNF("host-a", vnf); err != nil {
			t.Fatal(err)
		}
		d.ias.expectCalls(t, "EnrollVNF "+vnf, 1, 0)
	}
	if _, err := d.m.AttestVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "AttestVNF", 1, 0)

	// A stored SigRL of another group is not the enclave's.
	d.m.mu.Lock()
	d.m.hosts["host-a"].sigRL.gid++
	d.m.mu.Unlock()
	if _, err := d.m.AttestVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "AttestVNF, other group stored", 1, 1)
}

// TestSigRLRevokedAfterFetch revokes the credential enclave's signature
// after the appraisal fetched the SigRL that msg2 then carries: IAS checks
// its live lists, so the enrollment is refused all the same.
func TestSigRLRevokedAfterFetch(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "AttestHost", 1, 1)
	// Linkable quotes use the SPID's hash as the EPID basename.
	spid := d.m.spid
	basename := sha256.Sum256(spid[:])
	d.iasSvc.RevokeSignature(d.h.Platform().EPIDMember().Pseudonym(basename[:]))

	_, err := d.m.EnrollVNF("host-a", "fw-1")
	if !errors.Is(err, ErrQuoteStatus) || !strings.Contains(err.Error(), string(ias.StatusSignatureRevoked)) {
		t.Fatalf("enroll with a revoked signature: %v, want ErrQuoteStatus %s", err, ias.StatusSignatureRevoked)
	}
	d.ias.expectCalls(t, "EnrollVNF", 1, 0)
	if _, err := d.m.Enrollment("fw-1"); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("enrollment recorded after a revoked quote: %v", err)
	}
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	log := d.m.TransparencyLog()
	for _, e := range log.Entries(0, log.Size()) {
		if e.Type == translog.EntryEnroll && e.Actor == "fw-1" {
			t.Fatalf("EntryEnroll logged for a revoked quote: %+v", e)
		}
	}
}

func TestSigRLFailureLeavesAppraisalAlone(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.ias.failSigRL.Store(true)
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if !app.Trusted || !d.m.HostTrusted("host-a") {
		t.Fatalf("a SigRL failure changed the verdict: %v", app.Findings)
	}
	d.ias.expectCalls(t, "AttestHost", 1, 1)
	if rl := d.storedSigRL(); rl != nil {
		t.Fatalf("failed fetch stored a SigRL: %+v", rl)
	}

	_, err = d.m.EnrollVNF("host-a", "fw-1")
	if !errors.Is(err, errSigRLDown) || !strings.Contains(err.Error(), "fetching SigRL") {
		t.Fatalf("enroll with IAS SigRL down: %v, want it to wrap the fetch error", err)
	}
	d.ias.expectCalls(t, "failed EnrollVNF", 0, 1)

	d.ias.failSigRL.Store(false)
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "EnrollVNF", 1, 1)
}

func TestUntrustedAppraisalClearsSigRL(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	if d.storedSigRL() == nil {
		t.Fatal("trusted appraisal stored no SigRL")
	}
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("backdoored"))
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("tampered host trusted")
	}
	if rl := d.storedSigRL(); rl != nil {
		t.Fatalf("untrusted appraisal kept a SigRL: %+v", rl)
	}
	d.ias.expectCalls(t, "AttestHost x2", 2, 2)
	// Use case 1 needs no trusted host, so it fetches for itself.
	if _, err := d.m.AttestVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	d.ias.expectCalls(t, "AttestVNF", 1, 1)
}

// TestAppraisalSigRLUnderReattestation enrolls while host appraisals,
// each replacing the stored SigRL, run beside it.
func TestAppraisalSigRLUnderReattestation(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	vnfs := []string{"fw-1", "fw-2", "fw-3"}
	for _, v := range vnfs {
		d.deployAndLearn(t, v)
	}
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(vnfs)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5 && errs[0] == nil; i++ {
			var app *HostAppraisal
			if app, errs[0] = d.m.AttestHost("host-a"); errs[0] == nil && !app.Trusted {
				errs[0] = errors.New(strings.Join(app.Findings, "; "))
			}
		}
	}()
	for i, v := range vnfs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i+1] = d.m.EnrollVNF("host-a", v)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := len(d.m.Enrollments()); n != len(vnfs) {
		t.Fatalf("%d enrollments, want %d", n, len(vnfs))
	}
}
