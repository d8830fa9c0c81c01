// Package vnfguard's root benchmark suite regenerates the experiments
// E1–E20, one benchmark per experiment row; cmd/benchreport runs the same
// experiments and prints their tables. Benchmarks run under the default
// literature-derived cost model (simtime.DefaultCosts) so that modeled
// hardware costs — EPID quote generation, IAS WAN round trips, enclave
// transitions, TPM quotes — shape the results as they would on a real
// deployment.
package vnfguard

import (
	"crypto/ecdsa"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/ima"
	"vnfguard/internal/metrics"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

// benchModel returns the cost model under which the E-series runs.
func benchModel() *simtime.CostModel { return simtime.DefaultCosts() }

// newBenchDeployment builds a deployment with one deployed firewall VNF
// and a learned golden baseline.
func newBenchDeployment(b *testing.B, opts core.Options) *core.Deployment {
	b.Helper()
	if opts.Model == nil {
		opts.Model = benchModel()
	}
	d, err := core.NewDeployment(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	if err := d.DeployVNF(0, "fw-0", "firewall"); err != nil {
		b.Fatal(err)
	}
	if err := d.LearnGolden(); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkE1_WorkflowEndToEnd measures the full Figure-1 workflow: host
// attestation (steps 1–2), VNF enclave attestation and provisioning
// (steps 3–5), and the first authenticated controller session (step 6).
func BenchmarkE1_WorkflowEndToEnd(b *testing.B) {
	d := newBenchDeployment(b, core.Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSFullSession,
	})
	env := core.DefaultEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("fw-e1-%d", i)
		b.StopTimer()
		if err := d.DeployVNF(0, name, "firewall"); err != nil {
			b.Fatal(err)
		}
		if err := d.LearnGolden(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			b.Fatal(err)
		}
		if _, err := d.VM.EnrollVNF(d.HostName(0), name); err != nil {
			b.Fatal(err)
		}
		ce, err := d.Hosts[0].CredentialEnclave(name)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := vnf.NewInstance(core.StandardFirewall(name), ce, d.ControllerURL(), core.ServerName, env, enclaveapp.TLSFullSession)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Activate(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := inst.Deactivate(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkE2_VNFAttestation measures use case 1 — the integrity
// attestation of a VNF credential enclave: the RA key exchange including
// quote generation and IAS validation (steps 3–4), without provisioning.
func BenchmarkE2_VNFAttestation(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quote, err := d.VM.AttestVNF(d.HostName(0), "fw-0")
		if err != nil {
			b.Fatal(err)
		}
		if quote == nil {
			b.Fatal("no quote")
		}
	}
}

// BenchmarkE3_Enrollment measures use case 2 — enrolling an attested VNF:
// RA exchange plus credential generation and provisioning (steps 3–5).
func BenchmarkE3_Enrollment(b *testing.B) {
	for _, mode := range []enclaveapp.ProvisionMode{enclaveapp.ModeVMGenerated, enclaveapp.ModeCSR} {
		b.Run(string(mode), func(b *testing.B) {
			d := newBenchDeployment(b, core.Options{Provision: mode})
			if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("fw-e3-%d", i)
				b.StopTimer()
				if err := d.DeployVNF(0, name, "firewall"); err != nil {
					b.Fatal(err)
				}
				if err := d.LearnGolden(); err != nil {
					b.Fatal(err)
				}
				if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := d.VM.EnrollVNF(d.HostName(0), name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_SecurityModes measures north-bound REST latency across
// Floodlight's three security modes, per-connection (handshake included)
// and with keep-alive.
func BenchmarkE4_SecurityModes(b *testing.B) {
	type variant struct {
		name  string
		mode  controller.SecurityMode
		trust controller.TrustModel
	}
	variants := []variant{
		{"http", controller.ModeHTTP, controller.TrustCA},
		{"https", controller.ModeHTTPS, controller.TrustCA},
		{"trusted-https-ca", controller.ModeTrustedHTTPS, controller.TrustCA},
		{"trusted-https-keystore", controller.ModeTrustedHTTPS, controller.TrustKeystore},
	}
	for _, v := range variants {
		d := newBenchDeployment(b, core.Options{
			Mode: v.mode, Trust: v.trust, TLSMode: enclaveapp.TLSKeyInEnclave,
			Model: simtime.ZeroCosts(), // isolate transport cost
		})
		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			b.Fatal(err)
		}
		enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-0")
		if err != nil {
			b.Fatal(err)
		}
		if v.trust == controller.TrustKeystore {
			d.Server.PinCertificate(enr.Cert)
		}
		ce, err := d.Hosts[0].CredentialEnclave("fw-0")
		if err != nil {
			b.Fatal(err)
		}
		mkClient := func() *controller.Client {
			if v.mode == controller.ModeHTTP {
				return controller.NewClient(d.ControllerURL(), nil)
			}
			cfg, err := ce.ClientTLSConfig(core.ServerName)
			if err != nil {
				b.Fatal(err)
			}
			return controller.NewClient(d.ControllerURL(), cfg)
		}
		b.Run(v.name+"/per-connection", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				client := mkClient()
				if _, err := client.Summary(); err != nil {
					b.Fatal(err)
				}
				client.CloseIdle()
			}
		})
		b.Run(v.name+"/keep-alive", func(b *testing.B) {
			client := mkClient()
			defer client.CloseIdle()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Summary(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_EnclaveTLS measures the paper's deferred question: the
// performance impact of TLS placement. Native (no enclave) vs private
// key in enclave vs full session in enclave, for full handshakes and bulk
// transfer against a ticketless server, and for handshakes resuming a
// TLS 1.3 session ticket against a ticket-issuing one.
func BenchmarkE5_EnclaveTLS(b *testing.B) {
	model := benchModel()
	d := newBenchDeployment(b, core.Options{Model: model})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		b.Fatal(err)
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-0"); err != nil {
		b.Fatal(err)
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-0")
	if err != nil {
		b.Fatal(err)
	}

	// Mutual-TLS echo servers trusting the VM CA.
	full := startEchoTLS(b, d.VM.CA(), false)
	resuming := startEchoTLS(b, d.VM.CA(), true)

	// Native baseline: key held in untrusted memory.
	nativeKey, err := pki.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	csr, err := pki.CreateCSR("native", nativeKey)
	if err != nil {
		b.Fatal(err)
	}
	nativeCert, err := d.VM.CA().SignClientCSR(csr, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	nativeCfg := &tls.Config{
		MinVersion: tls.VersionTLS12, RootCAs: d.VM.CA().Pool(), ServerName: core.ServerName,
		Certificates: []tls.Certificate{{Certificate: [][]byte{nativeCert.Raw}, PrivateKey: nativeKey}},
	}
	keyCfg, err := ce.ClientTLSConfig(core.ServerName)
	if err != nil {
		b.Fatal(err)
	}

	// dialers returns the three placements; with tickets the native and
	// key-in-enclave configs get a session cache, as the credential
	// enclave always has one inside.
	dialers := func(tickets bool) map[string]func(addr string) (net.Conn, error) {
		nativeCfg, keyCfg := nativeCfg, keyCfg
		if tickets {
			nativeCfg, keyCfg = nativeCfg.Clone(), keyCfg.Clone()
			nativeCfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
			keyCfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
		}
		return map[string]func(addr string) (net.Conn, error){
			"native":         func(addr string) (net.Conn, error) { return tls.Dial("tcp", addr, nativeCfg) },
			"key-in-enclave": func(addr string) (net.Conn, error) { return tls.Dial("tcp", addr, keyCfg) },
			"full-session-in-enclave": func(addr string) (net.Conn, error) {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return ce.DialTLS(raw, core.ServerName)
			},
		}
	}
	placements := []string{"native", "key-in-enclave", "full-session-in-enclave"}
	fullDialers := dialers(false)
	for _, name := range placements {
		dial := fullDialers[name]
		b.Run("handshake/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conn, err := dial(full.addr)
				if err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
		})
		for _, size := range []int{1 << 10, 64 << 10} {
			payload := make([]byte, size)
			b.Run(fmt.Sprintf("transfer-%dKiB/%s", size>>10, name), func(b *testing.B) {
				conn, err := dial(full.addr)
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				buf := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := conn.Write(payload); err != nil {
						b.Fatal(err)
					}
					if _, err := io.ReadFull(conn, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Resumed handshakes: a warm-up connection takes the first ticket,
	// and every measured connection takes the next one, untimed, after
	// its handshake.
	resumeDialers := dialers(true)
	for _, name := range placements {
		dial := resumeDialers[name]
		b.Run("handshake-resumed/"+name, func(b *testing.B) {
			connect := func() error {
				conn, err := dial(resuming.addr)
				if err != nil {
					return err
				}
				b.StopTimer()
				defer b.StartTimer()
				defer conn.Close()
				if _, err := conn.Write([]byte{1}); err != nil {
					return err
				}
				_, err = io.ReadFull(conn, make([]byte, 1))
				return err
			}
			if err := connect(); err != nil {
				b.Fatal(err)
			}
			before := resuming.resumed.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := connect(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := resuming.resumed.Load() - before; got != int64(b.N) {
				b.Fatalf("%d of %d handshakes resumed", got, b.N)
			}
		})
	}
}

// echoTLS is a mutual-TLS echo server for E5. With tickets it issues
// TLS 1.3 session tickets and counts the handshakes that resumed one;
// without, every handshake is a full one.
type echoTLS struct {
	addr    string
	resumed atomic.Int64
}

// startEchoTLS runs an echo server until the benchmark ends.
func startEchoTLS(b *testing.B, ca *pki.CA, tickets bool) *echoTLS {
	b.Helper()
	key, err := pki.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	cert, err := ca.IssueServerCert(core.ServerName, []string{core.ServerName}, []net.IP{net.IPv4(127, 0, 0, 1)}, &key.PublicKey, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	e := &echoTLS{}
	cfg := &tls.Config{
		MinVersion:             tls.VersionTLS12,
		Certificates:           []tls.Certificate{{Certificate: [][]byte{cert.Raw}, PrivateKey: key}},
		ClientAuth:             tls.RequireAndVerifyClientCert,
		ClientCAs:              ca.Pool(),
		SessionTicketsDisabled: !tickets,
		VerifyConnection: func(cs tls.ConnectionState) error {
			if cs.DidResume {
				e.resumed.Add(1)
			}
			return nil
		},
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(conn)
		}
	}()
	e.addr = ln.Addr().String()
	return e
}

// BenchmarkE6_HostAttestation measures steps 1–2 as the IML grows: the
// quote and IAS round trip dominate; appraisal is linear but cheap.
func BenchmarkE6_HostAttestation(b *testing.B) {
	for _, entries := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("iml-%d", entries), func(b *testing.B) {
			d := newBenchDeployment(b, core.Options{})
			for i := 0; i < entries; i++ {
				d.Hosts[0].IMA().HandleEvent(ima.Event{
					Path: fmt.Sprintf("/usr/lib/mod-%04d.so", i),
					Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0,
				}, []byte(fmt.Sprintf("module %d", i)))
			}
			if err := d.LearnGolden(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app, err := d.VM.AttestHost(d.HostName(0))
				if err != nil {
					b.Fatal(err)
				}
				if !app.Trusted {
					b.Fatalf("untrusted: %v", app.Findings)
				}
			}
		})
	}
}

// BenchmarkE7_TPMRootedIMA compares software-only attestation with the
// §4 TPM-rooted extension (a large constant cost buys tamper evidence).
func BenchmarkE7_TPMRootedIMA(b *testing.B) {
	for _, tpmOn := range []bool{false, true} {
		name := "software-iml"
		if tpmOn {
			name = "tpm-rooted-iml"
		}
		b.Run(name, func(b *testing.B) {
			d := newBenchDeployment(b, core.Options{EnableTPM: tpmOn, RequireTPM: tpmOn})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app, err := d.VM.AttestHost(d.HostName(0))
				if err != nil {
					b.Fatal(err)
				}
				if !app.Trusted {
					b.Fatalf("untrusted: %v", app.Findings)
				}
			}
		})
	}
}

// BenchmarkE8_Scaling measures enrollment of N VNFs on one host (the
// multi-VNF deployment Figure 1 depicts).
func BenchmarkE8_Scaling(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("vnfs-%d", n), func(b *testing.B) {
			d := newBenchDeployment(b, core.Options{})
			for i := 0; i < n; i++ {
				if err := d.DeployVNF(0, fmt.Sprintf("fw-s%d", i), "firewall"); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.LearnGolden(); err != nil {
				b.Fatal(err)
			}
			if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					if _, err := d.VM.EnrollVNF(d.HostName(0), fmt.Sprintf("fw-s%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for j := 0; j < n; j++ {
					if err := d.VM.RevokeVNF(fmt.Sprintf("fw-s%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE9_Revocation measures the enroll+revoke credential cycle.
// Revocation alone is microseconds (CRL update + one sealed record; see
// cmd/benchreport E9 for its isolated latency); timing the full cycle
// keeps the benchmark's iteration count proportionate to its setup cost.
func BenchmarkE9_Revocation(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("fw-e9-%d", i)
		b.StopTimer()
		if err := d.DeployVNF(0, name, "firewall"); err != nil {
			b.Fatal(err)
		}
		if err := d.LearnGolden(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := d.VM.EnrollVNF(d.HostName(0), name); err != nil {
			b.Fatal(err)
		}
		if err := d.VM.RevokeVNF(name); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLogEntry builds a representative hot-path audit entry (attestation
// verdicts carry no credential serial; issuance entries do, but those are
// not the batched path).
func benchLogEntry(i int) translog.Entry {
	return translog.Entry{
		Type:      translog.EntryAttestOK,
		Timestamp: int64(1700000000000 + i),
		Actor:     fmt.Sprintf("fw-%d", i),
		Host:      "host-0",
		Detail:    "OK",
	}
}

// BenchmarkE11TranslogAppend measures the transparency log's write path
// under the E-series cost model deployment: every committed batch costs
// one Merkle root recomputation plus one ECDSA tree-head signature, so
// the batched appender amortises the signature across the batch. The
// unbatched variant commits (and signs) per entry — the comparison is
// the justification for the batched design on the hot attestation path.
func BenchmarkE11TranslogAppend(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	b.Run("unbatched", func(b *testing.B) {
		l, err := translog.NewLog(signer)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(benchLogEntry(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched-256", func(b *testing.B) {
		l, err := translog.NewLog(signer)
		if err != nil {
			b.Fatal(err)
		}
		a := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
		defer a.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Append(benchLogEntry(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := l.Size(); got != uint64(b.N) {
			b.Fatalf("committed %d of %d entries", got, b.N)
		}
	})
}

// BenchmarkE13TranslogDurableAppend measures what durability costs the
// hot audit path: the batched appender over the statedir-backed WAL
// (every committed batch = record writes + one segment fsync + one
// atomic tree-head replacement) against the same appender on the
// in-memory log. Batching amortises the fsync exactly like it amortises
// the tree-head signature, so the per-entry cost must stay within 5x of
// the in-memory appender.
func BenchmarkE13TranslogDurableAppend(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	run := func(b *testing.B, l *translog.Log) {
		a := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
		defer a.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Append(benchLogEntry(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := l.Size(); got != uint64(b.N) {
			b.Fatalf("committed %d of %d entries", got, b.N)
		}
	}
	b.Run("in-memory-batched-256", func(b *testing.B) {
		l, err := translog.NewLog(signer)
		if err != nil {
			b.Fatal(err)
		}
		run(b, l)
	})
	b.Run("durable-batched-256", func(b *testing.B) {
		l, err := translog.OpenDurableLog(signer, b.TempDir(), translog.StoreConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		run(b, l)
	})
}

// BenchmarkE13TranslogRecovery measures the restart path: reopening (replay
// + torn-tail scan + tree rebuild + root-vs-head verification) a durable
// log of the given size.
func BenchmarkE13TranslogRecovery(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	for _, population := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("entries-%d", population), func(b *testing.B) {
			dir := b.TempDir()
			l, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]translog.Entry, population)
			for i := range batch {
				batch[i] = benchLogEntry(i)
			}
			if _, err := l.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if re.Size() != uint64(population) {
					b.Fatal("short recovery")
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18CheckpointedRecovery measures what the anchor-verified
// checkpoint buys the restart path: reopening a durable log that
// checkpointed near its head (replay = the short WAL suffix past the
// checkpoint, tree seeded from the frozen subtree hashes) against
// reopening the same population with no checkpoint (replay = every
// record ever written). The checkpointed open must stay flat as the
// population grows while the full replay grows linearly.
func BenchmarkE18CheckpointedRecovery(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	const suffix = 256
	build := func(b *testing.B, population int, checkpointed bool) string {
		dir := b.TempDir()
		l, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]translog.Entry, population-suffix)
		for i := range batch {
			batch[i] = benchLogEntry(i)
		}
		if _, err := l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		if checkpointed {
			if err := l.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		tail := make([]translog.Entry, suffix)
		for i := range tail {
			tail[i] = benchLogEntry(population - suffix + i)
		}
		if _, err := l.AppendBatch(tail); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, population := range []int{1 << 10, 1 << 14} {
		for _, mode := range []string{"full-replay", "checkpointed"} {
			b.Run(fmt.Sprintf("%s-entries-%d", mode, population), func(b *testing.B) {
				dir := build(b, population, mode == "checkpointed")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					re, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{NoSync: true})
					if err != nil {
						b.Fatal(err)
					}
					if re.Size() != uint64(population) {
						b.Fatal("short recovery")
					}
					if err := re.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE12InclusionVerify measures the relying-party read path: an
// inclusion-proof generation plus full cryptographic verification
// (tree-head signature + audit path) per credential check, against a log
// pre-populated with 4096 entries — the controller's per-handshake cost
// in log-gated trusted mode.
func BenchmarkE12InclusionVerify(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	l, err := translog.NewLog(signer)
	if err != nil {
		b.Fatal(err)
	}
	const population = 4096
	batch := make([]translog.Entry, population)
	for i := range batch {
		e := benchLogEntry(i)
		e.Type = translog.EntryEnroll
		batch[i] = e
	}
	if _, err := l.AppendBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := l.ProveSerial(fmt.Sprintf("%d", i%population))
		if err != nil {
			b.Fatal(err)
		}
		if err := pb.Verify(pub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19TileProofServing compares the two ways an auditor gets an
// inclusion proof out of the log server: the per-request proof endpoint
// (one HTTP round trip per proof, the server walks its tree every
// time), and client-side assembly from content-addressed tiles — cold
// (a too-small LRU, every proof re-fetches tiles over HTTP) and warm
// (the working set's tiles cached and pre-expanded, so a proof is a
// handful of in-memory array reads and zero HTTP). Every proof is
// verified against the tree root in all modes, so the comparison is
// end-to-end useful work. The full 10^6-entry run with the ≥10x verdict
// lives in cmd/benchreport (E19).
func BenchmarkE19TileProofServing(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	l, err := translog.NewLog(signer)
	if err != nil {
		b.Fatal(err)
	}
	const population = 1 << 16
	batch := make([]translog.Entry, population)
	for i := range batch {
		batch[i] = benchLogEntry(i)
	}
	if _, err := l.AppendBatch(batch); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, translog.Handler(l))
	url := "http://" + ln.Addr().String()
	sth := l.STH()

	// The auditors' working set: 512 indices spread across the whole
	// tree (a fixed period, so the warm run can cover it up front).
	prove := func(b *testing.B, i int, proofs func(index, size uint64) ([]translog.Hash, error)) {
		b.Helper()
		index := uint64((i%512)*7919) % population
		proof, err := proofs(index, population)
		if err != nil {
			b.Fatal(err)
		}
		leaf := translog.LeafHash(batch[index].Marshal())
		if err := translog.VerifyInclusion(leaf, index, population, proof, sth.RootHash); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("endpoint", func(b *testing.B) {
		c := translog.NewClient(url, nil)
		for i := 0; i < b.N; i++ {
			prove(b, i, c.InclusionProof)
		}
	})
	b.Run("tile-cold", func(b *testing.B) {
		asm := translog.NewTileAssembler(translog.NewClient(url, nil), 2)
		for i := 0; i < b.N; i++ {
			prove(b, i, asm.InclusionProof)
		}
	})
	b.Run("tile-warm", func(b *testing.B) {
		asm := translog.NewTileAssembler(translog.NewClient(url, nil), 1024)
		for i := 0; i < 512; i++ { // pull the whole working set in
			prove(b, i, asm.InclusionProof)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prove(b, i, asm.InclusionProof)
		}
	})
}

// BenchmarkE14GossipExchange measures the witness gossip protocol: the
// per-head signature verification that bounds how a witness scales with
// peers, and a full exchange round — served-head poll plus a head swap
// (HTTP POST, merge, response verify) with each peer — at growing peer
// counts. All witnesses share one honest log, so every round is the
// steady-state no-conflict path.
func BenchmarkE14GossipExchange(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	l, err := translog.NewLog(signer)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]translog.Entry, 1024)
	for i := range batch {
		batch[i] = benchLogEntry(i)
	}
	if _, err := l.AppendBatch(batch); err != nil {
		b.Fatal(err)
	}
	logLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer logLn.Close()
	go http.Serve(logLn, translog.Handler(l))
	logURL := "http://" + logLn.Addr().String()

	b.Run("head-verify", func(b *testing.B) {
		sth := l.STH()
		for i := 0; i < b.N; i++ {
			if err := sth.Verify(pub); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, peers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("exchange-%dpeers", peers), func(b *testing.B) {
			pool := translog.NewGossipPool("bench", translog.NewWitness(pub), translog.NewClient(logURL, pub))
			for i := 0; i < peers; i++ {
				peer := translog.NewGossipPool(fmt.Sprintf("peer-%d", i),
					translog.NewWitness(pub), translog.NewClient(logURL, pub))
				if err := peer.Exchange(); err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				go http.Serve(ln, translog.GossipHandler(peer))
				pool.AddPeer(translog.NewClient("http://"+ln.Addr().String(), pub))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.Exchange(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if pool.Conflict() != nil {
				b.Fatalf("honest gossip convicted: %v", pool.Conflict())
			}
		})
	}
}

// e15Platform builds the SGX platform the sealed-head anchor runs on
// for the E15 benchmarks, under the E-series cost model (so the modeled
// counter-bump and seal charges shape the result).
func e15Platform(b *testing.B) *sgx.Platform {
	b.Helper()
	issuer, err := epid.NewIssuer(0xE15)
	if err != nil {
		b.Fatal(err)
	}
	p, err := sgx.NewPlatform("bench-machine", issuer, benchModel())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// e15Anchor launches a sealed-head anchor for a store directory.
func e15Anchor(b *testing.B, p *sgx.Platform, vendor *ecdsa.PrivateKey, dir string, pub *ecdsa.PublicKey) *translog.SealedHeadAnchor {
	b.Helper()
	a, err := translog.NewSealedHeadAnchor(p, vendor, filepath.Join(dir, translog.SealedHeadFileName), pub)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkE15SealedCommit measures what the enclave-sealed monotonic
// head costs the hot audit path: the batched appender over the durable
// WAL with the sealed anchor in the commit chain (per committed batch:
// one ECall + counter read + seal, one atomic blob replacement, one
// counter bump) against the same appender on the plain durable log.
// Budget: the sealed per-entry cost must stay within 2x of the plain
// durable append — the anchor work is per batch, so batching amortises
// it exactly like the fsync and the head signature.
func BenchmarkE15SealedCommit(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	vendor, err := pki.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, l *translog.Log) {
		a := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
		defer a.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Append(benchLogEntry(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := l.Size(); got != uint64(b.N) {
			b.Fatalf("committed %d of %d entries", got, b.N)
		}
	}
	b.Run("durable-batched-256", func(b *testing.B) {
		l, err := translog.OpenDurableLog(signer, b.TempDir(), translog.StoreConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		run(b, l)
	})
	b.Run("sealed-batched-256", func(b *testing.B) {
		// A fresh platform per invocation: each b.N re-run gets a fresh
		// "machine" whose counter starts in step with the fresh store.
		platform := e15Platform(b)
		dir := b.TempDir()
		l, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{
			Anchors: []translog.TrustAnchor{e15Anchor(b, platform, vendor, dir, pub)},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		run(b, l)
	})
}

// BenchmarkE15SealedRecovery measures the restart path with the sealed
// anchor: replay + plain head verification plus one unseal, one counter
// read and the size/root comparison against the sealed head.
func BenchmarkE15SealedRecovery(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	vendor, err := pki.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	for _, population := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("entries-%d", population), func(b *testing.B) {
			platform := e15Platform(b)
			dir := b.TempDir()
			l, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{
				Anchors: []translog.TrustAnchor{e15Anchor(b, platform, vendor, dir, pub)},
			})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]translog.Entry, population)
			for i := range batch {
				batch[i] = benchLogEntry(i)
			}
			if _, err := l.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := translog.OpenDurableLog(signer, dir, translog.StoreConfig{
					Anchors: []translog.TrustAnchor{e15Anchor(b, platform, vendor, dir, pub)},
				})
				if err != nil {
					b.Fatal(err)
				}
				if re.Size() != uint64(population) {
					b.Fatal("short recovery")
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16ShardedAppend measures what per-host WAL streams buy as
// the producing host count grows (1/4/16 hosts hammering concurrently).
// Both arms run the same appender — per-host buffers, merged cycles
// prepared on every core, up to hosts×1024 entries committed under ONE
// signature/head/anchor bump — over a durable WAL: 1-stream writes every
// record to one segment stream, sharded-16 fans the records out to
// per-host streams whose fsyncs overlap. Target: a sharded per-entry
// durable cost within 1.5x of E13's single-producer durable append.
func BenchmarkE16ShardedAppend(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	// Interned label tables: the benchmark measures the log, not the
	// per-entry fmt.Sprintf a naive harness would pay.
	var actors, hostNames [64]string
	for i := range actors {
		actors[i] = fmt.Sprintf("fw-%d", i)
		hostNames[i] = fmt.Sprintf("host-%d", i)
	}
	run := func(b *testing.B, l *translog.Log, ap *translog.ShardedAppender, hosts int) {
		var wg sync.WaitGroup
		b.ResetTimer()
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				host := hostNames[h]
				for i := h; i < b.N; i += hosts {
					e := translog.Entry{
						Type: translog.EntryAttestOK, Timestamp: int64(1700000000000 + i),
						Actor: actors[i%64], Host: host, Detail: "OK",
					}
					if err := ap.Append(e); err != nil {
						b.Error(err)
						return
					}
				}
			}(h)
		}
		wg.Wait()
		if err := ap.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := l.Size(); got != uint64(b.N) {
			b.Fatalf("committed %d of %d entries", got, b.N)
		}
		if err := ap.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, hosts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("hosts-%d/1-stream", hosts), func(b *testing.B) {
			l, err := translog.OpenDurableLog(signer, b.TempDir(), translog.StoreConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			run(b, l, translog.NewShardedAppender(l, translog.ShardedAppenderConfig{}), hosts)
		})
		b.Run(fmt.Sprintf("hosts-%d/sharded-16", hosts), func(b *testing.B) {
			l, err := translog.OpenDurableLog(signer, b.TempDir(), translog.StoreConfig{Shards: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			run(b, l, translog.NewShardedAppender(l, translog.ShardedAppenderConfig{}), hosts)
		})
	}
}

// BenchmarkE17TelemetryOverhead measures what the PR-6 instrumentation
// costs the hottest path in the repo: the 16-host sharded append run
// from E16, once with the telemetry registry live (every counter,
// gauge and phase histogram recording) and once with it disabled (each
// instrument op short-circuits on one atomic load). The acceptance bar
// is instrumented throughput within 5% of uninstrumented. With
// BENCH_JSON_DIR set, the comparison lands in BENCH_E17.json.
func BenchmarkE17TelemetryOverhead(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	signer := d.VM.CA().Signer()
	var actors, hostNames [64]string
	for i := range actors {
		actors[i] = fmt.Sprintf("fw-%d", i)
		hostNames[i] = fmt.Sprintf("host-%d", i)
	}
	const hosts = 16
	run := func(b *testing.B, enabled bool) (ops int64, elapsed time.Duration) {
		obs.Default().SetEnabled(enabled)
		defer obs.Default().SetEnabled(true)
		l, err := translog.OpenDurableLog(signer, b.TempDir(), translog.StoreConfig{Shards: 16})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		ap := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{})
		var wg sync.WaitGroup
		b.ResetTimer()
		start := time.Now()
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				host := hostNames[h]
				for i := h; i < b.N; i += hosts {
					e := translog.Entry{
						Type: translog.EntryAttestOK, Timestamp: int64(1700000000000 + i),
						Actor: actors[i%64], Host: host, Detail: "OK",
					}
					if err := ap.Append(e); err != nil {
						b.Error(err)
						return
					}
				}
			}(h)
		}
		wg.Wait()
		if err := ap.Flush(); err != nil {
			b.Fatal(err)
		}
		elapsed = time.Since(start)
		b.StopTimer()
		if got := l.Size(); got != uint64(b.N) {
			b.Fatalf("committed %d of %d entries", got, b.N)
		}
		if err := ap.Close(); err != nil {
			b.Fatal(err)
		}
		return int64(b.N), elapsed
	}
	var res [2]struct {
		ops     int64
		elapsed time.Duration
	}
	b.Run("uninstrumented", func(b *testing.B) { res[0].ops, res[0].elapsed = run(b, false) })
	b.Run("instrumented", func(b *testing.B) { res[1].ops, res[1].elapsed = run(b, true) })
	if dir := os.Getenv("BENCH_JSON_DIR"); dir != "" && res[0].ops > 0 && res[1].ops > 0 {
		off := float64(res[0].elapsed.Nanoseconds()) / float64(res[0].ops)
		on := float64(res[1].elapsed.Nanoseconds()) / float64(res[1].ops)
		art := metrics.BenchArtifact{
			Name:        "E17",
			Description: "telemetry overhead on the 16-host sharded append path",
			Ops:         res[1].ops,
			NsPerOp:     on,
			Table: &metrics.TableData{
				Title:   "E17: telemetry overhead (sharded append, 16 hosts)",
				Headers: []string{"variant", "ns/op"},
				Rows: [][]string{
					{"uninstrumented", fmt.Sprintf("%.0f", off)},
					{"instrumented", fmt.Sprintf("%.0f", on)},
					{"overhead", fmt.Sprintf("%.2f%%", (on-off)/off*100)},
				},
			},
			UnixTime: time.Now().Unix(),
		}
		if err := metrics.WriteBenchJSON(dir, art); err != nil {
			b.Error(err)
		}
	}
}

// BenchmarkE10_SGXPrimitives isolates the substrate's modeled costs (the
// cost-model ablation: each primitive under the default model).
func BenchmarkE10_SGXPrimitives(b *testing.B) {
	d := newBenchDeployment(b, core.Options{})
	ce, err := d.Hosts[0].CredentialEnclave("fw-0")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		b.Fatal(err)
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-0"); err != nil {
		b.Fatal(err)
	}
	b.Run("ecall-sign", func(b *testing.B) {
		signer, err := ce.Signer()
		if err != nil {
			b.Fatal(err)
		}
		digest := make([]byte, 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := signer.Sign(nil, digest, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ecall-hmac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ce.HMAC([]byte("heartbeat")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-evidence-quote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Hosts[0].Attest([]byte("bench-nonce"), false); err != nil {
				b.Fatal(err)
			}
		}
	})
	if d.Hosts[0].HasTPM() {
		b.Run("tpm-quote", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Hosts[0].TPM().Quote([]byte("n"), []int{10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE20PartitionedWitnessAudit measures the economics the
// partitioned audit plane exists for: the cost of one witness's full
// audit pass (head adoption plus per-shard stream verification of its
// assigned slice) as the fleet grows 16 -> 64 -> 256 hosts. The witness
// set scales with the fleet while the quorum stays fixed, so each
// witness's assigned slice — and therefore its per-pass cost — should
// stay flat, while a full-fleet witness (every shard assigned, the
// pre-partition deployment model) grows linearly. The scaling verdict
// with the <=1.5x flatness bound lives in cmd/benchreport (E20).
func BenchmarkE20PartitionedWitnessAudit(b *testing.B) {
	const perHost = 16
	const quorum = 3
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	pub, ok := ca.Signer().Public().(*ecdsa.PublicKey)
	if !ok {
		b.Fatal("CA signer is not ECDSA")
	}
	for _, hosts := range []int{16, 64, 256} {
		shards := hosts
		names := make([]string, hosts/2)
		for i := range names {
			names[i] = fmt.Sprintf("w%03d", i)
		}
		part, err := translog.NewWitnessPartition(shards, names, quorum)
		if err != nil {
			b.Fatal(err)
		}
		l, err := translog.NewLog(ca.Signer())
		if err != nil {
			b.Fatal(err)
		}
		if err := l.EnableShardStreams(shards); err != nil {
			b.Fatal(err)
		}
		batch := make([]translog.Entry, 0, hosts*perHost)
		for h := 0; h < hosts; h++ {
			for i := 0; i < perHost; i++ {
				batch = append(batch, translog.Entry{
					Type: translog.EntryAttestOK, Timestamp: int64(len(batch)),
					Actor: fmt.Sprintf("fw-%d", len(batch)),
					Host:  fmt.Sprintf("host-%d", h), Detail: "OK",
				})
			}
		}
		if _, err := l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		sth := l.STH()
		fetch := func(a, n uint64) ([]translog.Hash, error) { return l.ConsistencyProof(a, n) }
		audit := func(assigned []int) error {
			w := translog.NewWitness(pub)
			w.SetAssignedShards(shards, assigned)
			if err := w.Advance(sth, fetch); err != nil {
				return err
			}
			return w.AuditShards(sth, l, 0)
		}
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		b.Run(fmt.Sprintf("hosts=%d/per-witness", hosts), func(b *testing.B) {
			assigned := part.AssignedShards(names[0])
			for i := 0; i < b.N; i++ {
				if err := audit(assigned); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hosts=%d/full-fleet", hosts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := audit(all); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
