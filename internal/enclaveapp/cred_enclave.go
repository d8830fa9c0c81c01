package enclaveapp

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"vnfguard/internal/pki"
	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/sgx"
)

// OCallQEQuote is served by the host runtime: it hands a local report to
// the platform quoting enclave (the AESM hand-off).
const OCallQEQuote = "qe_quote"

// credentialEnclaveVersion is measured into MRENCLAVE together with the
// Verification Manager's public key.
const credentialEnclaveVersion = "vnfguard credential enclave v1"

// Heap record names for long-lived secrets (encrypted at rest in the
// enclave page store).
const (
	heapTLSKey     = "tls_key_pkcs8"
	heapCert       = "cert_der"
	heapCA         = "ca_der"
	heapHMACKey    = "hmac_key"
	heapSessionKey = "ra_session_key"
)

// Credential enclave errors.
var (
	ErrNotProvisioned  = errors.New("enclaveapp: no credentials provisioned")
	ErrNoSession       = errors.New("enclaveapp: no attested session established")
	ErrKeyCertMismatch = errors.New("enclaveapp: provisioned key does not match certificate")
)

// CredentialEnclave wraps the launched per-VNF credential enclave (a TEE
// in Figure 1). Long-lived secrets live in the encrypted enclave heap;
// ephemeral session objects (the RA state machine, TLS connections, TLS
// session tickets) are enclave-internal code state.
type CredentialEnclave struct {
	enclave  *sgx.Enclave
	platform *sgx.Platform
	spid     sgx.SPID
	vmPub    *ecdsa.PublicKey

	mu    sync.Mutex
	att   *ra.Attester
	codec *secchan.RecordCodec

	tlsMu    sync.Mutex
	sessions map[uint32]*tlsSession
	nextSess uint32
	// tickets holds the TLS 1.3 session tickets the controller issued to
	// in-enclave sessions, so a fresh connection resumes instead of
	// repeating the full mutual handshake. The resumption secrets never
	// leave the enclave, and the cache is replaced whenever the
	// credential is (provisioning and the revoke wipe): a ticket never
	// outlives the certificate it was issued to.
	tickets tls.ClientSessionCache
}

// ticketCacheSize bounds the in-enclave ticket cache. Tickets are keyed
// by server name, and a VNF talks to a handful of controllers at most.
const ticketCacheSize = 4

// dropTickets replaces the ticket cache with an empty one. It runs after
// the credential changes: a handshake takes the cache before it reads the
// key and certificate, so a handshake that saw the old credential holds
// the old cache, which no later handshake can reach.
func (ce *CredentialEnclave) dropTickets() {
	ce.tlsMu.Lock()
	ce.tickets = tls.NewLRUClientSessionCache(ticketCacheSize)
	ce.tlsMu.Unlock()
}

// credentialCode returns the measured code bytes: the enclave version plus
// the trusted Verification Manager public key. Binding the VM key into the
// measurement means a substituted VM yields a different MRENCLAVE and
// fails appraisal.
func credentialCode(vmPub *ecdsa.PublicKey) []byte {
	return append([]byte(credentialEnclaveVersion), elliptic.Marshal(elliptic.P256(), vmPub.X, vmPub.Y)...)
}

// NewCredentialEnclave launches a credential enclave trusting vmPub as its
// challenger identity.
func NewCredentialEnclave(p *sgx.Platform, signer *ecdsa.PrivateKey, vmPub *ecdsa.PublicKey, spid sgx.SPID) (*CredentialEnclave, error) {
	ce := &CredentialEnclave{
		platform: p,
		spid:     spid,
		vmPub:    vmPub,
		sessions: make(map[uint32]*tlsSession),
		tickets:  tls.NewLRUClientSessionCache(ticketCacheSize),
	}
	spec := sgx.EnclaveSpec{
		Name:       "credential",
		ProdID:     2,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		HeapPages:  16,
		Modules: []sgx.CodeModule{{
			Name: "credential",
			Code: credentialCode(vmPub),
			Handlers: map[string]sgx.ECallHandler{
				"ra_msg1":       ce.handleRAMsg1,
				"ra_msg23":      ce.handleRAMsg23,
				"ra_msg4":       ce.handleRAMsg4,
				"channel_frame": ce.handleChannelFrame,
				"sign":          ce.handleSign,
				"pubkey":        ce.handlePubKey,
				"cert_info":     ce.handleCertInfo,
				"hmac":          ce.handleHMAC,
				"status":        ce.handleStatus,
				"tls_handshake": ce.handleTLSHandshake,
				"tls_read":      ce.handleTLSRead,
				"tls_write":     ce.handleTLSWrite,
				"tls_close":     ce.handleTLSClose,
			},
		}},
	}
	ss, err := sgx.SignEnclave(spec, signer)
	if err != nil {
		return nil, err
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		return nil, err
	}
	e.SetOCallHandler(func(name string, payload []byte) ([]byte, error) {
		switch name {
		case OCallQEQuote:
			report, err := sgx.DecodeReport(payload)
			if err != nil {
				return nil, err
			}
			q, err := p.QE().GetQuote(report, spid, sgx.QuoteLinkable)
			if err != nil {
				return nil, err
			}
			return q.Encode(), nil
		default:
			return nil, fmt.Errorf("enclaveapp: unknown ocall %q", name)
		}
	})
	ce.enclave = e
	return ce, nil
}

// ---- RA handshake ECALLs -------------------------------------------------

func (ce *CredentialEnclave) handleRAMsg1(ctx *sgx.Context, args []byte) ([]byte, error) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	att, m1, err := ra.NewAttester(ce.platform.GID(), ce.vmPub)
	if err != nil {
		return nil, err
	}
	ce.att = att
	return m1.Encode(), nil
}

func (ce *CredentialEnclave) handleRAMsg23(ctx *sgx.Context, args []byte) ([]byte, error) {
	ce.mu.Lock()
	att := ce.att
	ce.mu.Unlock()
	if att == nil {
		return nil, ErrNoSession
	}
	m2, err := ra.DecodeMsg2(args)
	if err != nil {
		return nil, err
	}
	quoteFn := func(rd sgx.ReportData) ([]byte, error) {
		report := ctx.Report(ce.platform.QE().TargetInfo(), rd)
		return ctx.OCall(OCallQEQuote, sgx.EncodeReport(report))
	}
	m3, err := att.ProcessMsg2(m2, quoteFn)
	if err != nil {
		return nil, err
	}
	return m3.Encode(), nil
}

func (ce *CredentialEnclave) handleRAMsg4(ctx *sgx.Context, args []byte) ([]byte, error) {
	ce.mu.Lock()
	att := ce.att
	ce.mu.Unlock()
	if att == nil {
		return nil, ErrNoSession
	}
	m4, err := ra.DecodeMsg4(args)
	if err != nil {
		return nil, err
	}
	if err := att.ProcessMsg4(m4); err != nil {
		return nil, err
	}
	sk, err := att.SessionKey()
	if err != nil {
		return nil, err
	}
	codec, err := secchan.NewCodec(sk, secchan.RoleResponder)
	if err != nil {
		return nil, err
	}
	if err := ctx.Put(heapSessionKey, sk[:]); err != nil {
		return nil, err
	}
	ce.mu.Lock()
	ce.codec = codec
	ce.att = nil
	ce.mu.Unlock()
	return []byte("enrolled"), nil
}

// ---- secure-channel record processing -------------------------------------

func (ce *CredentialEnclave) handleChannelFrame(ctx *sgx.Context, frame []byte) ([]byte, error) {
	ce.mu.Lock()
	codec := ce.codec
	ce.mu.Unlock()
	if codec == nil {
		return nil, ErrNoSession
	}
	msgType, payload, err := codec.Open(frame)
	if err != nil {
		return nil, err
	}
	respType, respPayload, err := ce.dispatchRecord(ctx, msgType, payload)
	if err != nil {
		respType = secchan.TypeError
		respPayload = []byte(err.Error())
	}
	return codec.Seal(respType, respPayload)
}

func (ce *CredentialEnclave) dispatchRecord(ctx *sgx.Context, msgType uint8, payload []byte) (uint8, []byte, error) {
	switch msgType {
	case secchan.TypeProvision:
		p, err := DecodeProvisionPayload(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := ce.storeCredentials(ctx, p); err != nil {
			return 0, nil, err
		}
		return secchan.TypeAck, []byte("provisioned"), nil
	case secchan.TypeCSR:
		var req CSRRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return 0, nil, err
		}
		csr, err := ce.generateKeyAndCSR(ctx, req.CommonName)
		if err != nil {
			return 0, nil, err
		}
		resp, err := json.Marshal(CSRResponse{CSRDER: csr})
		if err != nil {
			return 0, nil, err
		}
		return secchan.TypeCSR, resp, nil
	case secchan.TypeRevoke:
		ctx.Delete(heapTLSKey)
		ctx.Delete(heapCert)
		ctx.Delete(heapCA)
		ctx.Delete(heapHMACKey)
		ce.dropTickets()
		return secchan.TypeAck, []byte("revoked"), nil
	default:
		return 0, nil, fmt.Errorf("enclaveapp: unexpected record type %d", msgType)
	}
}

// storeCredentials validates and persists a provisioning payload. Every
// provisioning, even a failed one, leaves an empty ticket cache behind.
func (ce *CredentialEnclave) storeCredentials(ctx *sgx.Context, p *ProvisionPayload) error {
	defer ce.dropTickets()
	cert, err := x509.ParseCertificate(p.CertDER)
	if err != nil {
		return fmt.Errorf("enclaveapp: provisioned certificate: %w", err)
	}
	certPub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return errors.New("enclaveapp: certificate key type unsupported")
	}
	switch p.Mode {
	case ModeVMGenerated:
		keyAny, err := x509.ParsePKCS8PrivateKey(p.KeyPKCS8)
		if err != nil {
			return fmt.Errorf("enclaveapp: provisioned key: %w", err)
		}
		key, ok := keyAny.(*ecdsa.PrivateKey)
		if !ok {
			return errors.New("enclaveapp: provisioned key type unsupported")
		}
		if !key.PublicKey.Equal(certPub) {
			return ErrKeyCertMismatch
		}
		if err := ctx.Put(heapTLSKey, p.KeyPKCS8); err != nil {
			return err
		}
	case ModeCSR:
		// The key must already exist from the CSR round; verify it
		// matches the issued certificate.
		key, err := ce.loadKey(ctx)
		if err != nil {
			return fmt.Errorf("enclaveapp: CSR-mode provisioning without key: %w", err)
		}
		if !key.PublicKey.Equal(certPub) {
			return ErrKeyCertMismatch
		}
	default:
		return fmt.Errorf("enclaveapp: unknown provisioning mode %q", p.Mode)
	}
	if err := ctx.Put(heapCert, p.CertDER); err != nil {
		return err
	}
	if err := ctx.Put(heapCA, p.CADER); err != nil {
		return err
	}
	if len(p.HMACKey) > 0 {
		if err := ctx.Put(heapHMACKey, p.HMACKey); err != nil {
			return err
		}
	}
	return nil
}

func (ce *CredentialEnclave) generateKeyAndCSR(ctx *sgx.Context, commonName string) ([]byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclaveapp: generating key: %w", err)
	}
	pkcs8, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		return nil, err
	}
	if err := ctx.Put(heapTLSKey, pkcs8); err != nil {
		return nil, err
	}
	return pki.CreateCSR(commonName, key)
}

func (ce *CredentialEnclave) loadKey(ctx *sgx.Context) (*ecdsa.PrivateKey, error) {
	raw, ok := ctx.Get(heapTLSKey)
	if !ok {
		return nil, ErrNotProvisioned
	}
	keyAny, err := x509.ParsePKCS8PrivateKey(raw)
	if err != nil {
		return nil, fmt.Errorf("enclaveapp: stored key: %w", err)
	}
	key, ok := keyAny.(*ecdsa.PrivateKey)
	if !ok {
		return nil, errors.New("enclaveapp: stored key type unsupported")
	}
	return key, nil
}

// ---- credential-use ECALLs -------------------------------------------------

func (ce *CredentialEnclave) handleSign(ctx *sgx.Context, digest []byte) ([]byte, error) {
	key, err := ce.loadKey(ctx)
	if err != nil {
		return nil, err
	}
	return ecdsa.SignASN1(rand.Reader, key, digest)
}

func (ce *CredentialEnclave) handlePubKey(ctx *sgx.Context, args []byte) ([]byte, error) {
	key, err := ce.loadKey(ctx)
	if err != nil {
		return nil, err
	}
	return x509.MarshalPKIXPublicKey(&key.PublicKey)
}

// certInfo is the public half of the provisioned credentials.
type certInfo struct {
	CertDER []byte `json:"cert_der"`
	CADER   []byte `json:"ca_der"`
}

func (ce *CredentialEnclave) handleCertInfo(ctx *sgx.Context, args []byte) ([]byte, error) {
	cert, ok := ctx.Get(heapCert)
	if !ok {
		return nil, ErrNotProvisioned
	}
	caDER, _ := ctx.Get(heapCA)
	return json.Marshal(certInfo{CertDER: cert, CADER: caDER})
}

func (ce *CredentialEnclave) handleHMAC(ctx *sgx.Context, data []byte) ([]byte, error) {
	key, ok := ctx.Get(heapHMACKey)
	if !ok {
		return nil, ErrNotProvisioned
	}
	return hmacSum(key, data), nil
}

// enclaveStatus reports non-secret state.
type enclaveStatus struct {
	Enrolled    bool `json:"enrolled"`
	Provisioned bool `json:"provisioned"`
}

func (ce *CredentialEnclave) handleStatus(ctx *sgx.Context, args []byte) ([]byte, error) {
	_, enrolled := ctx.Get(heapSessionKey)
	_, provisioned := ctx.Get(heapCert)
	return json.Marshal(enclaveStatus{Enrolled: enrolled, Provisioned: provisioned})
}

// ---- untrusted-side wrappers ------------------------------------------------

// RAMsg1 starts the remote-attestation exchange.
func (ce *CredentialEnclave) RAMsg1() (*ra.Msg1, error) {
	out, err := ce.enclave.ECall("ra_msg1", nil)
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg1(out)
}

// RAProcessMsg2 feeds msg2 in and returns msg3.
func (ce *CredentialEnclave) RAProcessMsg2(m2 *ra.Msg2) (*ra.Msg3, error) {
	out, err := ce.enclave.ECall("ra_msg23", m2.Encode())
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg3(out)
}

// RAFinalize feeds msg4 in, completing enrollment.
func (ce *CredentialEnclave) RAFinalize(m4 *ra.Msg4) error {
	_, err := ce.enclave.ECall("ra_msg4", m4.Encode())
	return err
}

// HandleFrame passes one secure-channel frame into the enclave and returns
// the enclave's response frame.
func (ce *CredentialEnclave) HandleFrame(frame []byte) ([]byte, error) {
	return ce.enclave.ECall("channel_frame", frame)
}

// Certificate returns the provisioned certificate and CA (public data).
func (ce *CredentialEnclave) Certificate() (certDER, caDER []byte, err error) {
	out, err := ce.enclave.ECall("cert_info", nil)
	if err != nil {
		return nil, nil, err
	}
	var info certInfo
	if err := json.Unmarshal(out, &info); err != nil {
		return nil, nil, err
	}
	return info.CertDER, info.CADER, nil
}

// HMAC authenticates data under the VM-provisioned HMAC key.
func (ce *CredentialEnclave) HMAC(data []byte) ([]byte, error) {
	return ce.enclave.ECall("hmac", data)
}

// Status reports enrollment/provisioning state.
func (ce *CredentialEnclave) Status() (enrolled, provisioned bool, err error) {
	out, err := ce.enclave.ECall("status", nil)
	if err != nil {
		return false, false, err
	}
	var st enclaveStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return false, false, err
	}
	return st.Enrolled, st.Provisioned, nil
}

// Identity returns the launched enclave identity.
func (ce *CredentialEnclave) Identity() sgx.Identity { return ce.enclave.Identity() }

// MemoryImage exposes the host-visible (ciphertext) heap for
// confidentiality tests.
func (ce *CredentialEnclave) MemoryImage() map[string][]byte { return ce.enclave.MemoryImage() }

// Destroy tears the enclave down, wiping key material.
func (ce *CredentialEnclave) Destroy() { ce.enclave.Destroy() }

// ExpectedCredentialMeasurement computes the MRENCLAVE the Verification
// Manager pins for credential enclaves trusting vmPub.
func ExpectedCredentialMeasurement(signer *ecdsa.PrivateKey, vmPub *ecdsa.PublicKey) (sgx.Measurement, error) {
	spec := sgx.EnclaveSpec{
		Name:       "credential",
		ProdID:     2,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		HeapPages:  16,
		Modules: []sgx.CodeModule{{
			Name: "credential",
			Code: credentialCode(vmPub),
		}},
	}
	ss, err := sgx.SignEnclave(spec, signer)
	if err != nil {
		return sgx.Measurement{}, err
	}
	return ss.Measurement, nil
}
