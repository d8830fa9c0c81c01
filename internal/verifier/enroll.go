package verifier

import (
	"encoding/json"
	"fmt"
	"time"

	"crypto/x509"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/pki"
	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/sgx"
	"vnfguard/internal/translog"
)

// EnrollVNF runs steps 3–5 for one VNF: remote attestation of its
// credential enclave (with IAS validation of the quote), then credential
// generation and provisioning over the attested secure channel. The host
// must have a current trusted appraisal (the paper: "the protocol
// continues only if the host is considered trustworthy following the
// appraisal").
func (m *Manager) EnrollVNF(hostName, vnf string) (*Enrollment, error) {
	m.mu.Lock()
	rec, ok := m.hosts[hostName]
	_, dup := m.enrollments[vnf]
	dup = dup || m.enrolling[vnf]
	if ok && !dup {
		// m.mu is released for the whole RA exchange; the reservation
		// keeps the name taken until this call inserts the enrollment
		// or fails.
		m.enrolling[vnf] = true
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, hostName)
	}
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyEnrolled, vnf)
	}
	defer func() {
		m.mu.Lock()
		delete(m.enrolling, vnf)
		m.mu.Unlock()
	}()
	if !m.HostTrusted(hostName) {
		return nil, fmt.Errorf("%w: %q", ErrHostNotTrusted, hostName)
	}

	// Steps 3–4: remote attestation of the credential enclave.
	raStart := time.Now()
	ch, err := m.attestCredentialEnclave(rec, vnf)
	if err != nil {
		return nil, err
	}
	m.trace("vnf-attestation", raStart)

	// Step 5: generate credentials and provision over the channel.
	provStart := time.Now()
	sk, err := ch.SessionKey()
	if err != nil {
		return nil, err
	}
	codec, err := secchan.NewCodec(sk, secchan.RoleInitiator)
	if err != nil {
		return nil, err
	}
	enr := &Enrollment{
		VNF:                vnf,
		Host:               hostName,
		CommonName:         vnf,
		hmacKey:            m.NewHMACKey(),
		EnclaveMeasurement: ch.Quote().Body.MRENCLAVE,
		EnrolledAt:         time.Now(),
		codec:              codec,
	}
	cert, err := m.provision(rec, enr)
	if err != nil {
		return nil, err
	}
	enr.Cert = cert
	enr.Serial = cert.SerialNumber.String()
	m.trace("provisioning", provStart)

	// Commit the issuance to the transparency log before releasing the
	// credential: a controller in trusted mode will demand the inclusion
	// proof, so the entries must exist before the certificate is usable.
	// One batch — both entries land under a single tree-head signature.
	mr := enr.EnclaveMeasurement
	if err := m.auditSync(
		translog.Entry{
			Type: translog.EntryEnroll, Actor: vnf, Host: hostName,
			Serial: enr.Serial, Measurement: append([]byte(nil), mr[:]...),
		},
		translog.Entry{
			Type: translog.EntryProvision, Actor: vnf, Host: hostName,
			Serial: enr.Serial, Detail: string(m.provMode),
		},
	); err != nil {
		return nil, fmt.Errorf("verifier: logging enrollment: %w", err)
	}

	m.mu.Lock()
	m.enrollments[vnf] = enr
	m.mu.Unlock()
	return enr, nil
}

// attestCredentialEnclave runs steps 3–4 for one VNF: the RA exchange
// with its credential enclave, taking msg2's SigRL from the host's
// appraisal when it has one for the enclave's group. The verdict goes to
// the enclave (msg4) and to the log either way.
func (m *Manager) attestCredentialEnclave(rec *hostRecord, vnf string) (*ra.Challenger, error) {
	m1, err := rec.conn.VNFRAMsg1(vnf)
	if err != nil {
		return nil, fmt.Errorf("verifier: RA msg1: %w", err)
	}
	sigRL, ok := m.appraisalSigRL(rec, m1.GID)
	if !ok {
		if sigRL, err = m.iasC.SigRL(m1.GID); err != nil {
			return nil, fmt.Errorf("verifier: fetching SigRL: %w", err)
		}
	}
	ch := ra.NewChallenger(m.spid, m.key, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, sigRL)
	if err != nil {
		return nil, err
	}
	m3, err := rec.conn.VNFRAMsg2(vnf, m2)
	if err != nil {
		return nil, fmt.Errorf("verifier: RA msg2/3: %w", err)
	}
	m4, chErr := ch.ProcessMsg3(m3, m.credentialEvidenceCheck)
	if m4 != nil {
		// Deliver the verdict to the enclave regardless of outcome.
		if err := rec.conn.VNFRAMsg4(vnf, m4); err != nil && chErr == nil {
			return nil, fmt.Errorf("verifier: RA msg4: %w", err)
		}
	}
	if chErr != nil {
		m.auditVNFAttestation(vnf, rec.name, sgx.Measurement{}, chErr)
		return nil, chErr
	}
	m.auditVNFAttestation(vnf, rec.name, ch.Quote().Body.MRENCLAVE, nil)
	return ch, nil
}

// credentialEvidenceCheck validates a credential-enclave quote via IAS
// (step 4) and pins the enclave identity.
func (m *Manager) credentialEvidenceCheck(quoteBytes []byte) (string, error) {
	defer m.trace("vnf-quote-verification", time.Now())
	avr, err := m.iasC.VerifyQuote(quoteBytes, "")
	if err != nil {
		return "IAS_ERROR", err
	}
	if !avr.Status().Trusted() {
		return string(avr.Status()), fmt.Errorf("%w: %s", ErrQuoteStatus, avr.Status())
	}
	quote, err := sgx.DecodeQuote(quoteBytes)
	if err != nil {
		return "MALFORMED", err
	}
	m.mu.Lock()
	okMR := m.expectCred[quote.Body.MRENCLAVE]
	m.mu.Unlock()
	if !okMR {
		return "MEASUREMENT_MISMATCH", fmt.Errorf("%w: credential enclave %s", ErrUnexpectedMR, quote.Body.MRENCLAVE)
	}
	if quote.Body.Attributes.Debug && !m.policy.AllowDebug {
		return "DEBUG_ENCLAVE", ErrDebugEnclave
	}
	if quote.Body.ISVSVN < m.policy.MinISVSVN {
		return "SVN_TOO_LOW", ErrSVNTooLow
	}
	return string(avr.Status()), nil
}

// provision executes the credential hand-off for the configured mode.
func (m *Manager) provision(rec *hostRecord, enr *Enrollment) (cert *x509.Certificate, err error) {
	payload := enclaveapp.ProvisionPayload{
		Mode:    m.provMode,
		CADER:   m.ca.Certificate().Raw,
		HMACKey: enr.hmacKey,
	}
	switch m.provMode {
	case enclaveapp.ModeVMGenerated:
		// The paper's design: the VM generates the key pair.
		key, err := pki.GenerateKey()
		if err != nil {
			return nil, err
		}
		csr, err := pki.CreateCSR(enr.CommonName, key)
		if err != nil {
			return nil, err
		}
		cert, err = m.ca.SignClientCSR(csr, m.certValidity)
		if err != nil {
			return nil, err
		}
		pkcs8, err := x509.MarshalPKCS8PrivateKey(key)
		if err != nil {
			return nil, err
		}
		payload.KeyPKCS8 = pkcs8
		payload.CertDER = cert.Raw
	case enclaveapp.ModeCSR:
		// Hardening mode: ask the enclave for a CSR first.
		req, err := json.Marshal(enclaveapp.CSRRequest{CommonName: enr.CommonName})
		if err != nil {
			return nil, err
		}
		respPayload, err := m.channelRound(rec, enr, secchan.TypeCSR, req, secchan.TypeCSR)
		if err != nil {
			return nil, err
		}
		var resp enclaveapp.CSRResponse
		if err := json.Unmarshal(respPayload, &resp); err != nil {
			return nil, err
		}
		cert, err = m.ca.SignClientCSR(resp.CSRDER, m.certValidity)
		if err != nil {
			return nil, err
		}
		payload.CertDER = cert.Raw
	default:
		return nil, fmt.Errorf("verifier: unknown provisioning mode %q", m.provMode)
	}

	body, err := payload.Encode()
	if err != nil {
		return nil, err
	}
	if _, err := m.channelRound(rec, enr, secchan.TypeProvision, body, secchan.TypeAck); err != nil {
		return nil, err
	}
	return cert, nil
}

// channelRound seals one record, relays it through the host, and opens the
// response, enforcing the expected response type.
func (m *Manager) channelRound(rec *hostRecord, enr *Enrollment, sendType uint8, payload []byte, wantType uint8) ([]byte, error) {
	frame, err := enr.codec.Seal(sendType, payload)
	if err != nil {
		return nil, err
	}
	respFrame, err := rec.conn.VNFFrame(enr.VNF, frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrProvisionTimeout, err)
	}
	gotType, respPayload, err := enr.codec.Open(respFrame)
	if err != nil {
		return nil, err
	}
	if gotType == secchan.TypeError {
		return nil, fmt.Errorf("%w: enclave: %s", ErrProvisionTimeout, respPayload)
	}
	if gotType != wantType {
		return nil, fmt.Errorf("verifier: unexpected channel response type %d", gotType)
	}
	return respPayload, nil
}

// RevokeVNF revokes an enrollment: the certificate lands on the CRL and
// the enclave is ordered to wipe its credentials over the still-keyed
// secure channel ("provision or revoke authentication keys", paper §2).
func (m *Manager) RevokeVNF(vnf string) error {
	m.mu.Lock()
	enr, ok := m.enrollments[vnf]
	var rec *hostRecord
	if ok {
		rec = m.hosts[enr.Host]
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotEnrolled, vnf)
	}
	m.ca.Revoke(enr.Cert.SerialNumber)
	// The revocation is committed to the log before the enclave wipe: the
	// controller's per-request and log-backed checks must see it even when
	// the (possibly compromised) host never acknowledges.
	if err := m.auditSync(translog.Entry{
		Type: translog.EntryRevoke, Actor: vnf, Host: enr.Host, Serial: enr.Serial,
	}); err != nil {
		return fmt.Errorf("verifier: logging revocation: %w", err)
	}
	if rec != nil {
		if _, err := m.channelRound(rec, enr, secchan.TypeRevoke, nil, secchan.TypeAck); err != nil {
			// The certificate is already revoked; wiping is best-effort
			// (the host may be gone).
			m.mu.Lock()
			delete(m.enrollments, vnf)
			m.mu.Unlock()
			return fmt.Errorf("verifier: enclave wipe failed (certificate revoked anyway): %w", err)
		}
	}
	m.mu.Lock()
	delete(m.enrollments, vnf)
	m.mu.Unlock()
	return nil
}

// AttestVNF runs use case 1 in isolation: remote attestation of a VNF's
// credential enclave (steps 3–4) without provisioning. It returns the
// verified quote. The enclave is informed of the verdict via msg4 but no
// session is retained.
func (m *Manager) AttestVNF(hostName, vnf string) (*sgx.Quote, error) {
	m.mu.Lock()
	rec, ok := m.hosts[hostName]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, hostName)
	}
	ch, err := m.attestCredentialEnclave(rec, vnf)
	if err != nil {
		return nil, err
	}
	return ch.Quote(), nil
}
