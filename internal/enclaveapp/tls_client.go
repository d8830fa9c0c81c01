package enclaveapp

import (
	"crypto"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
)

// TLSMode selects how much of the TLS stack runs inside the enclave.
type TLSMode int

// TLS placement modes (experiment E5).
const (
	// TLSKeyInEnclave keeps only the private key inside: handshake
	// signatures are ECALLs, the record layer runs untrusted. This is
	// the "alternative implementation" whose performance the paper
	// leaves for future work.
	TLSKeyInEnclave TLSMode = iota
	// TLSFullSession runs the whole TLS session inside the enclave, as
	// the paper's implementation does ("the security context established
	// for each TLS session (including the session key) does not leave
	// the enclave"). Record I/O crosses the boundary as OCALLs.
	TLSFullSession
)

// String names the mode for experiment tables.
func (m TLSMode) String() string {
	switch m {
	case TLSKeyInEnclave:
		return "key-in-enclave"
	case TLSFullSession:
		return "full-session-in-enclave"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

func hmacSum(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// ---- key-in-enclave mode ----------------------------------------------------

// Signer returns a crypto.Signer whose private operations execute inside
// the enclave (one ECALL per signature).
func (ce *CredentialEnclave) Signer() (crypto.Signer, error) {
	der, err := ce.enclave.ECall("pubkey", nil)
	if err != nil {
		return nil, err
	}
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("enclaveapp: enclave public key: %w", err)
	}
	return &enclaveSigner{ce: ce, pub: pub}, nil
}

type enclaveSigner struct {
	ce  *CredentialEnclave
	pub crypto.PublicKey
}

func (s *enclaveSigner) Public() crypto.PublicKey { return s.pub }

func (s *enclaveSigner) Sign(_ io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	if opts != nil && opts.HashFunc() != crypto.SHA256 {
		return nil, fmt.Errorf("enclaveapp: unsupported hash %v", opts.HashFunc())
	}
	return s.ce.enclave.ECall("sign", digest)
}

// ClientTLSConfig builds a mutual-TLS client config in key-in-enclave
// mode: the certificate chain is public, the private key stays behind the
// ECALL boundary.
func (ce *CredentialEnclave) ClientTLSConfig(serverName string) (*tls.Config, error) {
	certDER, caDER, err := ce.Certificate()
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, err
	}
	signer, err := ce.Signer()
	if err != nil {
		return nil, err
	}
	roots := x509.NewCertPool()
	if len(caDER) > 0 {
		ca, err := x509.ParseCertificate(caDER)
		if err != nil {
			return nil, err
		}
		roots.AddCert(ca)
	}
	return &tls.Config{
		MinVersion:   tls.VersionTLS12,
		RootCAs:      roots,
		ServerName:   serverName,
		Certificates: []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: signer, Leaf: leaf}},
	}, nil
}

// ---- full-session mode --------------------------------------------------------

// tlsSession is an in-enclave TLS connection.
type tlsSession struct {
	raw  net.Conn
	conn *tls.Conn
}

// ocallConn models record I/O crossing the enclave boundary: every Read
// and Write is an OCALL out plus an ECALL back in.
type ocallConn struct {
	net.Conn
	model *simtime.CostModel
}

func (c *ocallConn) Read(p []byte) (int, error) {
	c.model.Charge(simtime.OpOCall)
	n, err := c.Conn.Read(p)
	c.model.Charge(simtime.OpECall)
	return n, err
}

func (c *ocallConn) Write(p []byte) (int, error) {
	c.model.Charge(simtime.OpOCall)
	n, err := c.Conn.Write(p)
	c.model.Charge(simtime.OpECall)
	return n, err
}

type tlsHandshakeArgs struct {
	ID         uint32 `json:"id"`
	ServerName string `json:"server_name"`
}

func (ce *CredentialEnclave) getSession(id uint32) (*tlsSession, error) {
	ce.tlsMu.Lock()
	defer ce.tlsMu.Unlock()
	s, ok := ce.sessions[id]
	if !ok {
		return nil, fmt.Errorf("enclaveapp: unknown TLS session %d", id)
	}
	return s, nil
}

func (ce *CredentialEnclave) handleTLSHandshake(ctx *sgx.Context, args []byte) ([]byte, error) {
	var req tlsHandshakeArgs
	if err := json.Unmarshal(args, &req); err != nil {
		return nil, err
	}
	// The ticket cache is taken before the credential is read (see
	// dropTickets).
	ce.tlsMu.Lock()
	sess, ok := ce.sessions[req.ID]
	tickets := ce.tickets
	ce.tlsMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("enclaveapp: unknown TLS session %d", req.ID)
	}
	key, err := ce.loadKey(ctx)
	if err != nil {
		return nil, err
	}
	certDER, ok := ctx.Get(heapCert)
	if !ok {
		return nil, ErrNotProvisioned
	}
	caDER, _ := ctx.Get(heapCA)
	roots := x509.NewCertPool()
	if len(caDER) > 0 {
		ca, err := x509.ParseCertificate(caDER)
		if err != nil {
			return nil, err
		}
		roots.AddCert(ca)
	}
	cfg := &tls.Config{
		MinVersion:         tls.VersionTLS12,
		RootCAs:            roots,
		ServerName:         req.ServerName,
		Certificates:       []tls.Certificate{{Certificate: [][]byte{certDER}, PrivateKey: key}},
		ClientSessionCache: tickets,
	}
	conn := tls.Client(&ocallConn{Conn: sess.raw, model: ce.platform.Model()}, cfg)
	if err := conn.Handshake(); err != nil {
		return nil, fmt.Errorf("enclaveapp: in-enclave handshake: %w", err)
	}
	sess.conn = conn
	return []byte("ok"), nil
}

// tls_read result status bytes.
const (
	tlsReadOK  = 0
	tlsReadEOF = 1
)

func (ce *CredentialEnclave) handleTLSRead(ctx *sgx.Context, args []byte) ([]byte, error) {
	if len(args) != 8 {
		return nil, errors.New("enclaveapp: tls_read args")
	}
	id := binary.BigEndian.Uint32(args[:4])
	maxLen := binary.BigEndian.Uint32(args[4:8])
	if maxLen > 1<<20 {
		maxLen = 1 << 20
	}
	sess, err := ce.getSession(id)
	if err != nil {
		return nil, err
	}
	if sess.conn == nil {
		return nil, errors.New("enclaveapp: session not handshaken")
	}
	buf := make([]byte, maxLen+1)
	n, err := sess.conn.Read(buf[1:])
	switch {
	case err == nil || (errors.Is(err, io.EOF) && n > 0):
		buf[0] = tlsReadOK
	case errors.Is(err, io.EOF):
		buf[0] = tlsReadEOF
	default:
		return nil, err
	}
	return buf[:1+n], nil
}

func (ce *CredentialEnclave) handleTLSWrite(ctx *sgx.Context, args []byte) ([]byte, error) {
	if len(args) < 4 {
		return nil, errors.New("enclaveapp: tls_write args")
	}
	id := binary.BigEndian.Uint32(args[:4])
	sess, err := ce.getSession(id)
	if err != nil {
		return nil, err
	}
	if sess.conn == nil {
		return nil, errors.New("enclaveapp: session not handshaken")
	}
	n, err := sess.conn.Write(args[4:])
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, uint32(n))
	return out, err
}

func (ce *CredentialEnclave) handleTLSClose(ctx *sgx.Context, args []byte) ([]byte, error) {
	if len(args) != 4 {
		return nil, errors.New("enclaveapp: tls_close args")
	}
	id := binary.BigEndian.Uint32(args)
	ce.tlsMu.Lock()
	sess, ok := ce.sessions[id]
	delete(ce.sessions, id)
	ce.tlsMu.Unlock()
	if !ok {
		return nil, nil
	}
	if sess.conn != nil {
		return nil, sess.conn.Close()
	}
	return nil, sess.raw.Close()
}

// DialTLS establishes a full-session-in-enclave TLS connection over the
// given raw transport. The returned connection moves application data
// through ECALLs; TLS state never exists outside the enclave.
func (ce *CredentialEnclave) DialTLS(raw net.Conn, serverName string) (*FullSessionConn, error) {
	ce.tlsMu.Lock()
	ce.nextSess++
	id := ce.nextSess
	ce.sessions[id] = &tlsSession{raw: raw}
	ce.tlsMu.Unlock()

	args, err := json.Marshal(tlsHandshakeArgs{ID: id, ServerName: serverName})
	if err != nil {
		return nil, err
	}
	if _, err := ce.enclave.ECall("tls_handshake", args); err != nil {
		ce.tlsMu.Lock()
		delete(ce.sessions, id)
		ce.tlsMu.Unlock()
		return nil, err
	}
	return &FullSessionConn{ce: ce, id: id, raw: raw}, nil
}

// FullSessionConn is the untrusted handle to an in-enclave TLS session; it
// satisfies net.Conn so standard clients can use it.
type FullSessionConn struct {
	ce  *CredentialEnclave
	id  uint32
	raw net.Conn
}

// Read moves decrypted application data out of the enclave.
func (c *FullSessionConn) Read(p []byte) (int, error) {
	args := make([]byte, 8)
	binary.BigEndian.PutUint32(args[:4], c.id)
	binary.BigEndian.PutUint32(args[4:8], uint32(len(p)))
	out, err := c.ce.enclave.ECall("tls_read", args)
	if err != nil {
		return 0, err
	}
	if len(out) < 1 {
		return 0, errors.New("enclaveapp: malformed tls_read result")
	}
	n := copy(p, out[1:])
	if out[0] == tlsReadEOF {
		return n, io.EOF
	}
	return n, nil
}

// Write moves plaintext into the enclave for encryption and transmission.
func (c *FullSessionConn) Write(p []byte) (int, error) {
	args := make([]byte, 4+len(p))
	binary.BigEndian.PutUint32(args[:4], c.id)
	copy(args[4:], p)
	out, err := c.ce.enclave.ECall("tls_write", args)
	if err != nil {
		return 0, err
	}
	if len(out) != 4 {
		return 0, errors.New("enclaveapp: malformed tls_write result")
	}
	return int(binary.BigEndian.Uint32(out)), nil
}

// Close shuts the in-enclave session down.
func (c *FullSessionConn) Close() error {
	args := make([]byte, 4)
	binary.BigEndian.PutUint32(args, c.id)
	_, err := c.ce.enclave.ECall("tls_close", args)
	return err
}

// LocalAddr returns the transport's local address.
func (c *FullSessionConn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr returns the transport's remote address.
func (c *FullSessionConn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline sets transport deadlines.
func (c *FullSessionConn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline sets the transport read deadline.
func (c *FullSessionConn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline sets the transport write deadline.
func (c *FullSessionConn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }
