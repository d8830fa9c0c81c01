package verifier

import (
	"encoding/base64"
	"fmt"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/sgx"
)

// HostAppraisal is the outcome of steps 1–2 for one host.
type HostAppraisal struct {
	Host        string
	Trusted     bool
	QuoteStatus ias.QuoteStatus
	IMAResult   ima.AppraisalResult
	TPMVerified bool
	// Findings collects human-readable failure reasons.
	Findings []string
	// IMLEntries counts appraised measurements.
	IMLEntries int
	At         time.Time
}

// AttestHost runs the remote attestation of a container host (steps 1–2 of
// Figure 1): challenge the integrity attestation enclave, validate the
// quote with IAS, check the evidence binding and enclave identity, and
// appraise the integrity measurement list.
func (m *Manager) AttestHost(name string) (*HostAppraisal, error) {
	m.mu.Lock()
	rec, ok := m.hosts[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}

	nonce := m.NewNonce()
	useTPM := m.policy.RequireTPM || rec.aik != nil
	evStart := time.Now()
	ev, err := rec.conn.Attest(nonce, useTPM)
	if err != nil {
		return nil, fmt.Errorf("verifier: host attestation request: %w", err)
	}
	m.trace("host-evidence", evStart)
	appStart := time.Now()
	app, sigRL := m.appraiseHostEvidence(rec, nonce, ev)
	m.trace("host-appraisal", appStart)
	m.auditAppraisal(app)

	m.mu.Lock()
	rec.trusted = app.Trusted
	rec.lastSeen = app.At
	rec.last = app
	rec.sigRL = nil
	if app.Trusted {
		rec.sigRL = sigRL
	}
	m.mu.Unlock()
	return app, nil
}

// appraiseHostEvidence performs every verification step; it never returns
// early on failure so the appraisal lists all findings (operators fix root
// causes faster with the complete picture). It also returns the platform
// group's SigRL fetched beside step 2, or nil.
func (m *Manager) appraiseHostEvidence(rec *hostRecord, nonce []byte, ev *enclaveapp.HostEvidence) (*HostAppraisal, *groupSigRL) {
	app := &HostAppraisal{Host: rec.name, Trusted: true, At: time.Now()}
	fail := func(format string, args ...any) {
		app.Trusted = false
		app.Findings = append(app.Findings, fmt.Sprintf(format, args...))
	}

	// Freshness: the evidence must carry the nonce we issued.
	if string(ev.Nonce) != string(nonce) || !m.consumeNonce(ev.Nonce) {
		fail("nonce mismatch or replay")
	}

	quote, err := sgx.DecodeQuote(ev.Quote)
	if err != nil {
		fail("quote decode: %v", err)
		return app, nil
	}
	// Every enclave on the host quotes through the platform's EPID
	// group, so steps 3–4 will need this group's SigRL: fetch it beside
	// step 2's round trip rather than after it. A failed fetch only
	// leaves steps 3–4 to fetch their own.
	var sigRL *groupSigRL
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		if list, err := m.iasC.SigRL(quote.GID); err == nil {
			sigRL = &groupSigRL{gid: quote.GID, list: list}
		}
	}()

	// Step 2: IAS validates the quote and revocation state.
	avr, err := m.iasC.VerifyQuote(ev.Quote, base64.StdEncoding.EncodeToString(nonce)[:24])
	<-fetched
	if err != nil {
		fail("IAS verification: %v", err)
		return app, nil
	}
	app.QuoteStatus = avr.Status()
	if !avr.Status().Trusted() {
		fail("%v: %s", ErrQuoteStatus, avr.Status())
	}

	// Channel binding: report data must commit to IML, nonce and TPM
	// quote.
	if quote.Body.ReportData != sgx.ReportDataFromHash(ev.BindingDigest()) {
		fail("%v", ErrEvidenceBinding)
	}
	// Enclave identity.
	m.mu.Lock()
	okMR := m.expectAtt[quote.Body.MRENCLAVE]
	m.mu.Unlock()
	if !okMR {
		fail("%v: attestation enclave %s", ErrUnexpectedMR, quote.Body.MRENCLAVE)
	}
	if quote.Body.Attributes.Debug && !m.policy.AllowDebug {
		fail("%v", ErrDebugEnclave)
	}
	if quote.Body.ISVSVN < m.policy.MinISVSVN {
		fail("%v: %d < %d", ErrSVNTooLow, quote.Body.ISVSVN, m.policy.MinISVSVN)
	}

	// Appraise the integrity measurement list.
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		fail("IML parse: %v", err)
		return app, nil
	}
	app.IMLEntries = list.Len()
	app.IMAResult = m.goldenIMA.Appraise(list)
	if !app.IMAResult.Trusted {
		for _, f := range app.IMAResult.Findings {
			fail("IMA: %s", f)
		}
	}

	// Hardware root of trust (§4 extension).
	if m.policy.RequireTPM || ev.TPMQuote != nil {
		if err := verifyTPMEvidence(rec.aik, ev, list); err != nil {
			fail("%v", err)
		} else {
			app.TPMVerified = true
		}
	}
	return app, sigRL
}

// HostTrusted reports whether a host's appraisal is current and trusted.
func (m *Manager) HostTrusted(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[name]
	return ok && m.currentLocked(rec)
}

// currentLocked reports whether rec's appraisal is trusted and within
// Policy.ReattestAfter. m.mu must be held.
func (m *Manager) currentLocked(rec *hostRecord) bool {
	return rec.trusted && (m.policy.ReattestAfter <= 0 || time.Since(rec.lastSeen) <= m.policy.ReattestAfter)
}

// appraisalSigRL returns the SigRL fetched with rec's current appraisal
// when it covers gid. Its age admits no revoked signature: IAS checks its
// live lists at quote verification, and the QE ignores msg2's list.
func (m *Manager) appraisalSigRL(rec *hostRecord, gid epid.GroupID) ([][32]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.sigRL == nil || rec.sigRL.gid != gid || !m.currentLocked(rec) {
		return nil, false
	}
	return rec.sigRL.list, true
}

// LastAppraisal returns the most recent appraisal for a host.
func (m *Manager) LastAppraisal(name string) (*HostAppraisal, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if rec.last == nil {
		return nil, fmt.Errorf("verifier: host %q never attested", name)
	}
	cp := *rec.last
	return &cp, nil
}

// LearnHostGolden attests a host in learning mode: the current IML is
// recorded as the golden baseline. Operators run this once against a
// known-good deployment.
func (m *Manager) LearnHostGolden(name string) error {
	m.mu.Lock()
	rec, ok := m.hosts[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	nonce := m.NewNonce()
	ev, err := rec.conn.Attest(nonce, false)
	if err != nil {
		return err
	}
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		return err
	}
	m.goldenIMA.LearnFromList(list)
	return nil
}
