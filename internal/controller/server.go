package controller

import (
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"vnfguard/internal/obs"
)

// SecurityMode is one of Floodlight's three REST API security modes.
type SecurityMode int

// Security modes (paper §3: "Floodlight supports three different security
// modes for the REST API, non-secure (plain HTTP), HTTPS and trusted HTTPS
// (with client authentication)").
const (
	ModeHTTP SecurityMode = iota
	ModeHTTPS
	ModeTrustedHTTPS
)

// String names the mode for experiment tables.
func (m SecurityMode) String() string {
	switch m {
	case ModeHTTP:
		return "http"
	case ModeHTTPS:
		return "https"
	case ModeTrustedHTTPS:
		return "trusted-https"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TrustModel selects how trusted-HTTPS validates clients.
type TrustModel int

// Trust models.
const (
	// TrustCA validates client certificates against a trusted CA — the
	// paper's design: "we solve this by provisioning the controller with
	// a trusted certificate authority, rather than all client
	// certificates".
	TrustCA TrustModel = iota
	// TrustKeystore pins individual client certificates (Floodlight's
	// stock behaviour, kept as the E4 ablation: every new credential
	// requires a keystore update).
	TrustKeystore
)

// ServerConfig configures a controller REST endpoint.
type ServerConfig struct {
	Mode SecurityMode
	// Cert is the server certificate (HTTPS modes).
	Cert tls.Certificate
	// Trust selects CA or keystore validation in trusted mode.
	Trust TrustModel
	// ClientCAs is the trusted CA pool (TrustCA).
	ClientCAs *x509.CertPool
	// Keystore holds hex SHA-256 fingerprints of pinned client
	// certificates (TrustKeystore).
	Keystore map[string]bool
	// Revoked, when set, rejects revoked client certificates. It is
	// enforced at every TLS handshake, full or resumed, and again on
	// every request, so a revocation takes effect mid-session even on
	// kept-alive connections.
	Revoked func(*x509.Certificate) error
	// CredentialLog, when set, requires every trusted-mode client
	// certificate to carry, at every handshake, a verifiable inclusion
	// proof in the Verification Manager's transparency log
	// (translog.NewCredentialChecker): credentials the VM never logged
	// are rejected even when correctly CA-signed.
	CredentialLog func(*x509.Certificate) error
}

// Fingerprint computes the keystore key for a certificate.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.Raw)
	return hex.EncodeToString(sum[:])
}

// Server is a running controller REST endpoint.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	http *http.Server

	mu       sync.Mutex
	keystore map[string]bool
}

// ErrNotPinned reports a client certificate absent from the keystore.
var ErrNotPinned = errors.New("controller: client certificate not in keystore")

// errNoClientCert guards the leaf checks: the trusted-HTTPS client-auth
// modes already refuse a handshake, full or resumed, without a client
// certificate before the hook runs.
var errNoClientCert = errors.New("controller: no client certificate")

// Handshake telemetry: every trusted-HTTPS handshake that reaches the
// leaf checks is counted by kind, accepted or refused, so an operator can
// see how many connections resume a session ticket. Pre-resolved handles
// (see internal/translog/telemetry.go for the contract).
var (
	handshakeHelp     = "Trusted-HTTPS client handshakes that reached the leaf checks, by kind."
	mHandshakeFull    = obs.Default().Counter("controller_tls_handshakes_total", handshakeHelp, "kind", "full")
	mHandshakeResumed = obs.Default().Counter("controller_tls_handshakes_total", handshakeHelp, "kind", "resumed")
)

// Serve starts the controller's REST endpoint on addr (e.g. 127.0.0.1:0).
func Serve(ctrl *Controller, cfg ServerConfig, addr string) (*Server, error) {
	s := &Server{cfg: cfg, keystore: cfg.Keystore}
	if s.keystore == nil {
		s.keystore = make(map[string]bool)
	}
	handler := ctrl.Handler()
	if cfg.Mode == ModeTrustedHTTPS && cfg.Revoked != nil {
		// Revocation is re-checked per request, not only per handshake:
		// without this, a client holding a keep-alive connection keeps its
		// access for the lifetime of the TLS session after the VM revoked
		// its credential.
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
				if err := cfg.Revoked(r.TLS.PeerCertificates[0]); err != nil {
					http.Error(w, "client certificate revoked", http.StatusForbidden)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	s.http = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Rejected client certificates are the expected outcome of the
		// negative-path experiments; keep them off stderr.
		ErrorLog: log.New(io.Discard, "", 0),
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controller: listen: %w", err)
	}

	switch cfg.Mode {
	case ModeHTTP:
		s.ln = ln
	case ModeHTTPS:
		s.ln = tls.NewListener(ln, &tls.Config{
			MinVersion:   tls.VersionTLS12,
			Certificates: []tls.Certificate{cfg.Cert},
		})
	case ModeTrustedHTTPS:
		tcfg := &tls.Config{
			MinVersion:   tls.VersionTLS12,
			Certificates: []tls.Certificate{cfg.Cert},
		}
		// The leaf checks run in VerifyConnection, which Go calls on every
		// handshake, full or resumed from a session ticket; it skips
		// VerifyPeerCertificate on a resumption. A ticket issued before a
		// revocation therefore cannot carry the credential past it.
		checks := []func(*x509.Certificate) error{cfg.Revoked, cfg.CredentialLog}
		switch cfg.Trust {
		case TrustCA:
			if cfg.ClientCAs == nil {
				ln.Close()
				return nil, errors.New("controller: trusted mode requires ClientCAs")
			}
			// Chain validation stays with the TLS stack: a full handshake
			// verifies the chain, and a ticket is only resumed when the
			// session it came from carried a verified chain.
			tcfg.ClientAuth = tls.RequireAndVerifyClientCert
			tcfg.ClientCAs = cfg.ClientCAs
		case TrustKeystore:
			tcfg.ClientAuth = tls.RequireAnyClientCert
			checks = append([]func(*x509.Certificate) error{s.pinned}, checks...)
		}
		tcfg.VerifyConnection = verifyConnection(checks...)
		s.ln = tls.NewListener(ln, tcfg)
	default:
		ln.Close()
		return nil, fmt.Errorf("controller: unknown security mode %d", cfg.Mode)
	}

	go s.http.Serve(s.ln)
	return s, nil
}

// pinned is the keystore check: the client certificate must be pinned.
func (s *Server) pinned(cert *x509.Certificate) error {
	fp := Fingerprint(cert)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.keystore[fp] {
		return ErrNotPinned
	}
	return nil
}

// verifyConnection builds the trusted-HTTPS VerifyConnection hook: it
// counts the handshake by kind, then runs the per-leaf checks in order —
// keystore pin, revocation (the CRL distributed by the Verification
// Manager) and transparency-log inclusion (the leaf must carry provable
// issuance evidence in the VM's audit log). Nil checks are skipped.
func verifyConnection(checks ...func(*x509.Certificate) error) func(tls.ConnectionState) error {
	return func(cs tls.ConnectionState) error {
		if cs.DidResume {
			mHandshakeResumed.Inc()
		} else {
			mHandshakeFull.Inc()
		}
		if len(cs.PeerCertificates) == 0 {
			return errNoClientCert
		}
		leaf := cs.PeerCertificates[0]
		for _, check := range checks {
			if check == nil {
				continue
			}
			if err := check(leaf); err != nil {
				return err
			}
		}
		return nil
	}
}

// PinCertificate adds a client certificate to the keystore (the manual
// maintenance step the paper's CA design eliminates).
func (s *Server) PinCertificate(cert *x509.Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keystore[Fingerprint(cert)] = true
}

// UnpinCertificate removes a client certificate from the keystore. The
// pin is checked on every handshake, so sessions resumed from tickets
// issued while it was pinned are refused too.
func (s *Server) UnpinCertificate(cert *x509.Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.keystore, Fingerprint(cert))
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the endpoint base URL.
func (s *Server) URL() string {
	if s.cfg.Mode == ModeHTTP {
		return "http://" + s.Addr()
	}
	return "https://" + s.Addr()
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.http.Close() }
