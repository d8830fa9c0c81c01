// Command benchreport regenerates the experiments E1–E20 (the list in
// main is the index): it assembles a deployment per experiment, runs the
// workloads, and prints one table per experiment. Pass -markdown to emit
// GitHub-flavored tables and -json-dir to write BENCH_<id>.json artifacts.
//
// Usage:
//
//	benchreport [-runs N] [-markdown] [-experiments E1,E4,...]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crypto/ecdsa"
	"crypto/tls"
	"path/filepath"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/metrics"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

var (
	runs     = flag.Int("runs", 5, "iterations per measured point")
	markdown = flag.Bool("markdown", false, "emit markdown tables")
	selected = flag.String("experiments", "", "comma-separated experiment ids (default: all)")
	jsonDir  = flag.String("json-dir", "", "directory for machine-readable BENCH_<id>.json artifacts (empty disables)")
)

type experiment struct {
	id   string
	desc string
	run  func(runs int) (*metrics.Table, error)
}

func main() {
	flag.Parse()
	experiments := []experiment{
		{"E1", "Figure 1 six-step workflow", runE1},
		{"E2", "Use case 1: VNF integrity attestation", runE2},
		{"E3", "Use case 2: VNF enrollment", runE3},
		{"E4", "Floodlight REST security modes", runE4},
		{"E5", "In-enclave TLS placement", runE5},
		{"E6", "Host attestation vs IML size", runE6},
		{"E7", "TPM-rooted IMA (future work §4)", runE7},
		{"E8", "Enrollment scaling", runE8},
		{"E9", "Revocation", runE9},
		{"E10", "SGX substrate primitives", runE10},
		{"E11", "Transparency log appends (batched vs unbatched)", runE11},
		{"E12", "Credential inclusion-proof verification", runE12},
		{"E13", "Durable log appends and crash recovery", runE13},
		{"E14", "Witness gossip exchange and head verification", runE14},
		{"E15", "Enclave-sealed monotonic head (commit overhead + recovery)", runE15},
		{"E16", "Per-host WAL stream scaling (1-stream vs 16-stream, 1/4/16 hosts)", runE16},
		{"E17", "Telemetry overhead on the sharded append path (+ live /metrics scrape)", runE17},
		{"E18", "Checkpointed recovery vs full WAL replay (10^4..10^6 entries)", runE18},
		{"E19", "Tile-based proof serving vs the per-request proof endpoint (10^6 entries)", runE19},
		{"E20", "Partitioned witness audit cost vs fleet size (16/64/256 hosts)", runE20},
	}
	want := map[string]bool{}
	if *selected != "" {
		for _, id := range strings.Split(*selected, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		table, err := e.run(*runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
		if *jsonDir != "" {
			data := table.Data()
			art := metrics.BenchArtifact{
				Name: e.id, Description: e.desc, Table: &data, UnixTime: time.Now().Unix(),
			}
			if err := metrics.WriteBenchJSON(*jsonDir, art); err != nil {
				fmt.Fprintf(os.Stderr, "%s artifact: %v\n", e.id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

// trusted returns a ready deployment with a firewall VNF and golden IML.
func trusted(opts core.Options) (*core.Deployment, error) {
	if opts.Model == nil {
		opts.Model = simtime.DefaultCosts()
	}
	d, err := core.NewDeployment(opts)
	if err != nil {
		return nil, err
	}
	if err := d.DeployVNF(0, "fw-0", "firewall"); err != nil {
		return nil, err
	}
	if err := d.LearnGolden(); err != nil {
		return nil, err
	}
	return d, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond)) }

func runE1(runs int) (*metrics.Table, error) {
	d, err := trusted(core.Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSFullSession,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	stepHists := map[int]*metrics.Histogram{}
	for i := 1; i <= 6; i++ {
		stepHists[i] = metrics.NewHistogram(fmt.Sprintf("step-%d", i))
	}
	total := metrics.NewHistogram("total")
	names := map[int]string{}
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("fw-e1-%d", i)
		if err := d.DeployVNF(0, name, "firewall"); err != nil {
			return nil, err
		}
		if err := d.LearnGolden(); err != nil {
			return nil, err
		}
		res, err := d.RunWorkflow(0, []vnf.VNF{core.StandardFirewall(name)})
		if err != nil {
			return nil, err
		}
		for _, s := range res.Steps {
			stepHists[s.Number].Observe(s.Duration)
			names[s.Number] = s.Name
		}
		total.Observe(res.Total)
		if err := d.VM.RevokeVNF(name); err != nil {
			return nil, err
		}
	}
	t := metrics.NewTable("E1 — Figure 1 workflow, per-step latency (n="+fmt.Sprint(runs)+")",
		"step", "name", "mean", "p95")
	for i := 1; i <= 6; i++ {
		s := stepHists[i].Summarize()
		t.AddRow(i, names[i], ms(s.Mean), ms(s.P95))
	}
	s := total.Summarize()
	t.AddRow("-", "end-to-end total", ms(s.Mean), ms(s.P95))
	return t, nil
}

func runE2(runs int) (*metrics.Table, error) {
	t := metrics.NewTable("E2 — use case 1: VNF integrity attestation (n="+fmt.Sprint(runs)+")",
		"scenario", "outcome", "mean latency")

	// Genuine enclave.
	d, err := trusted(core.Options{})
	if err != nil {
		return nil, err
	}
	h := metrics.NewHistogram("ok")
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := d.VM.AttestVNF(d.HostName(0), "fw-0"); err != nil {
			return nil, err
		}
		h.Observe(time.Since(start))
	}
	t.AddRow("genuine enclave", "ACCEPTED (OK)", ms(h.Summarize().Mean))
	d.Close()

	// Revoked platform key.
	d2, err := trusted(core.Options{})
	if err != nil {
		return nil, err
	}
	d2.IAS.RevokePlatformKey(d2.Hosts[0].Platform().EPIDMember().PseudonymSecret())
	_, err = d2.VM.AttestVNF(d2.HostName(0), "fw-0")
	outcome := "REJECTED"
	if err != nil && strings.Contains(err.Error(), string(ias.StatusKeyRevoked)) {
		outcome = "REJECTED (KEY_REVOKED)"
	} else if err == nil {
		outcome = "ACCEPTED (!!)"
	}
	t.AddRow("revoked platform key", outcome, "-")
	d2.Close()

	// Tampered host (measurement mismatch blocks at host appraisal).
	d3, err := trusted(core.Options{})
	if err != nil {
		return nil, err
	}
	d3.Hosts[0].TamperBinary("fw-0", "/usr/bin/firewall", []byte("backdoored"))
	app, err := d3.VM.AttestHost(d3.HostName(0))
	if err != nil {
		return nil, err
	}
	if app.Trusted {
		t.AddRow("tampered VNF binary", "ACCEPTED (!!)", "-")
	} else {
		t.AddRow("tampered VNF binary", "REJECTED (IMA mismatch)", "-")
	}
	d3.Close()
	return t, nil
}

func runE3(runs int) (*metrics.Table, error) {
	t := metrics.NewTable("E3 — use case 2: VNF enrollment (n="+fmt.Sprint(runs)+")",
		"scenario", "outcome", "mean latency")
	for _, mode := range []enclaveapp.ProvisionMode{enclaveapp.ModeVMGenerated, enclaveapp.ModeCSR} {
		d, err := trusted(core.Options{Provision: mode})
		if err != nil {
			return nil, err
		}
		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			return nil, err
		}
		h := metrics.NewHistogram(string(mode))
		for i := 0; i < runs; i++ {
			name := fmt.Sprintf("fw-e3-%d", i)
			if err := d.DeployVNF(0, name, "firewall"); err != nil {
				return nil, err
			}
			if err := d.LearnGolden(); err != nil {
				return nil, err
			}
			if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := d.VM.EnrollVNF(d.HostName(0), name); err != nil {
				return nil, err
			}
			h.Observe(time.Since(start))
		}
		t.AddRow("enroll ("+string(mode)+")", "PROVISIONED", ms(h.Summarize().Mean))
		d.Close()
	}
	// Negative: enrollment refused on an unattested host.
	d, err := trusted(core.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-0"); err != nil {
		t.AddRow("enroll without host attestation", "REFUSED", "-")
	} else {
		t.AddRow("enroll without host attestation", "ALLOWED (!!)", "-")
	}
	// Negative: no credentials → controller rejects (trusted mode).
	d2, err := trusted(core.Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	if err != nil {
		return nil, err
	}
	client := controller.NewClient(d2.ControllerURL(), nil)
	if _, err := client.Health(); err != nil {
		t.AddRow("controller access without credentials", "TLS REJECTED", "-")
	} else {
		t.AddRow("controller access without credentials", "ALLOWED (!!)", "-")
	}
	d.Close()
	d2.Close()
	return t, nil
}

func runE4(runs int) (*metrics.Table, error) {
	if runs < 20 {
		runs = 20
	}
	type variant struct {
		name  string
		mode  controller.SecurityMode
		trust controller.TrustModel
	}
	variants := []variant{
		{"http", controller.ModeHTTP, controller.TrustCA},
		{"https", controller.ModeHTTPS, controller.TrustCA},
		{"trusted-https (CA)", controller.ModeTrustedHTTPS, controller.TrustCA},
		{"trusted-https (keystore)", controller.ModeTrustedHTTPS, controller.TrustKeystore},
	}
	t := metrics.NewTable("E4 — REST latency per security mode (n="+fmt.Sprint(runs)+")",
		"mode", "per-connection p50", "per-connection p95", "keep-alive p50")
	for _, v := range variants {
		d, err := trusted(core.Options{
			Mode: v.mode, Trust: v.trust, Model: simtime.ZeroCosts(),
		})
		if err != nil {
			return nil, err
		}
		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			return nil, err
		}
		enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-0")
		if err != nil {
			return nil, err
		}
		if v.trust == controller.TrustKeystore {
			d.Server.PinCertificate(enr.Cert)
		}
		ce, err := d.Hosts[0].CredentialEnclave("fw-0")
		if err != nil {
			return nil, err
		}
		mk := func() *controller.Client {
			if v.mode == controller.ModeHTTP {
				return controller.NewClient(d.ControllerURL(), nil)
			}
			cfg, err := ce.ClientTLSConfig(core.ServerName)
			if err != nil {
				panic(err)
			}
			return controller.NewClient(d.ControllerURL(), cfg)
		}
		perConn := metrics.NewHistogram("per-conn")
		for i := 0; i < runs; i++ {
			c := mk()
			perConn.Time(func() {
				if _, err := c.Summary(); err != nil {
					panic(err)
				}
			})
			c.CloseIdle()
		}
		keep := metrics.NewHistogram("keep-alive")
		c := mk()
		for i := 0; i < runs; i++ {
			keep.Time(func() {
				if _, err := c.Summary(); err != nil {
					panic(err)
				}
			})
		}
		c.CloseIdle()
		pc, ka := perConn.Summarize(), keep.Summarize()
		t.AddRow(v.name, ms(pc.P50), ms(pc.P95), ms(ka.P50))
		d.Close()
	}
	return t, nil
}

// e5Echo is a mutual-TLS echo server for E5 trusting the VM CA. With
// tickets it issues TLS 1.3 session tickets and counts the handshakes
// that resumed one; without, every handshake is a full one.
type e5Echo struct {
	addr    string
	resumed atomic.Int64
	ln      net.Listener
}

func startE5Echo(ca *pki.CA, tickets bool) (*e5Echo, error) {
	key, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	cert, err := ca.IssueServerCert(core.ServerName, []string{core.ServerName}, []net.IP{net.IPv4(127, 0, 0, 1)}, &key.PublicKey, time.Hour)
	if err != nil {
		return nil, err
	}
	e := &e5Echo{}
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
	e.ln, err = tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	e.addr = e.ln.Addr().String()
	go func() {
		for {
			conn, err := e.ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { defer c.Close(); io.Copy(c, c) }(conn)
		}
	}()
	return e, nil
}

// e5Dialer opens a client connection in one TLS placement.
type e5Dialer struct {
	name string
	dial func(addr string) (net.Conn, error)
}

// e5Dialers returns the three placements: native (no enclave), private
// key in the enclave, and the whole session in the enclave. With tickets
// the native and key-in-enclave configs get a session cache, as the
// credential enclave always has one inside.
func e5Dialers(ce *enclaveapp.CredentialEnclave, nativeCfg, keyCfg *tls.Config, tickets bool) []e5Dialer {
	if tickets {
		nativeCfg, keyCfg = nativeCfg.Clone(), keyCfg.Clone()
		nativeCfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
		keyCfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
	}
	return []e5Dialer{
		{"native (no enclave)", func(addr string) (net.Conn, error) { return tls.Dial("tcp", addr, nativeCfg) }},
		{"key-in-enclave", func(addr string) (net.Conn, error) { return tls.Dial("tcp", addr, keyCfg) }},
		{"full-session-in-enclave", func(addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return ce.DialTLS(raw, core.ServerName)
		}},
	}
}

// echoByte round-trips one byte, which also takes in the session ticket
// a TLS 1.3 server sends after the handshake.
func echoByte(conn net.Conn) error {
	if _, err := conn.Write([]byte{1}); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, make([]byte, 1))
	return err
}

// runE5 compares the TLS placements on full handshakes and bulk echo
// against a ticketless server, then on resumed handshakes against a
// ticket-issuing one.
func runE5(runs int) (*metrics.Table, error) {
	d, err := trusted(core.Options{})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		return nil, err
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-0"); err != nil {
		return nil, err
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-0")
	if err != nil {
		return nil, err
	}
	ca := d.VM.CA()
	full, err := startE5Echo(ca, false)
	if err != nil {
		return nil, err
	}
	defer full.ln.Close()
	resuming, err := startE5Echo(ca, true)
	if err != nil {
		return nil, err
	}
	defer resuming.ln.Close()

	nativeKey, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	csr, err := pki.CreateCSR("native", nativeKey)
	if err != nil {
		return nil, err
	}
	nativeCert, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		return nil, err
	}
	nativeCfg := &tls.Config{
		MinVersion: tls.VersionTLS12, RootCAs: ca.Pool(), ServerName: core.ServerName,
		Certificates: []tls.Certificate{{Certificate: [][]byte{nativeCert.Raw}, PrivateKey: nativeKey}},
	}
	keyCfg, err := ce.ClientTLSConfig(core.ServerName)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E5 — TLS placement (n="+fmt.Sprint(runs)+")",
		"placement", "handshake mean", "64KiB echo mean", "1KiB echo mean")
	for _, dl := range e5Dialers(ce, nativeCfg, keyCfg, false) {
		hs := metrics.NewHistogram("hs")
		for i := 0; i < runs; i++ {
			start := time.Now()
			conn, err := dl.dial(full.addr)
			if err != nil {
				return nil, err
			}
			hs.Observe(time.Since(start))
			conn.Close()
		}
		conn, err := dl.dial(full.addr)
		if err != nil {
			return nil, err
		}
		xferMeans := map[int]time.Duration{}
		for _, size := range []int{64 << 10, 1 << 10} {
			payload := make([]byte, size)
			buf := make([]byte, size)
			xfer := metrics.NewHistogram("xfer")
			for i := 0; i < runs; i++ {
				start := time.Now()
				if _, err := conn.Write(payload); err != nil {
					return nil, err
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					return nil, err
				}
				xfer.Observe(time.Since(start))
			}
			xferMeans[size] = xfer.Summarize().Mean
		}
		conn.Close()
		t.AddRow(dl.name, ms(hs.Summarize().Mean), ms(xferMeans[64<<10]), ms(xferMeans[1<<10]))
	}
	// Resumed handshakes: a warm-up connection takes the first ticket,
	// and every measured connection takes the next one after its timed
	// handshake.
	for _, dl := range e5Dialers(ce, nativeCfg, keyCfg, true) {
		hs := metrics.NewHistogram("hs")
		before := resuming.resumed.Load()
		for i := -1; i < runs; i++ {
			start := time.Now()
			conn, err := dl.dial(resuming.addr)
			if err != nil {
				return nil, err
			}
			if i >= 0 {
				hs.Observe(time.Since(start))
			}
			err = echoByte(conn)
			conn.Close()
			if err != nil {
				return nil, err
			}
		}
		if got := resuming.resumed.Load() - before; got != int64(runs) {
			return nil, fmt.Errorf("E5 %s: %d of %d handshakes resumed", dl.name, got, runs)
		}
		t.AddRow(dl.name+", resumed", ms(hs.Summarize().Mean), "—", "—")
	}
	return t, nil
}

func runE6(runs int) (*metrics.Table, error) {
	t := metrics.NewTable("E6 — host attestation vs IML size (n="+fmt.Sprint(runs)+")",
		"IML entries", "evidence (step 1) mean", "appraisal (step 2) mean", "total mean")
	for _, entries := range []int{10, 100, 1000} {
		d, err := trusted(core.Options{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < entries; i++ {
			d.Hosts[0].IMA().HandleEvent(ima.Event{
				Path: fmt.Sprintf("/usr/lib/mod-%04d.so", i),
				Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0,
			}, []byte(fmt.Sprintf("module %d", i)))
		}
		if err := d.LearnGolden(); err != nil {
			return nil, err
		}
		evidence := metrics.NewHistogram("evidence")
		appraisal := metrics.NewHistogram("appraisal")
		total := metrics.NewHistogram("total")
		d.VM.SetTracer(func(phase string, dur time.Duration) {
			switch phase {
			case "host-evidence":
				evidence.Observe(dur)
			case "host-appraisal":
				appraisal.Observe(dur)
			}
		})
		for i := 0; i < runs; i++ {
			start := time.Now()
			app, err := d.VM.AttestHost(d.HostName(0))
			if err != nil {
				return nil, err
			}
			if !app.Trusted {
				return nil, fmt.Errorf("E6: untrusted: %v", app.Findings)
			}
			total.Observe(time.Since(start))
		}
		t.AddRow(entries, ms(evidence.Summarize().Mean), ms(appraisal.Summarize().Mean), ms(total.Summarize().Mean))
		d.Close()
	}
	return t, nil
}

func runE7(runs int) (*metrics.Table, error) {
	t := metrics.NewTable("E7 — TPM-rooted IMA (n="+fmt.Sprint(runs)+")",
		"configuration", "attest mean", "IML-rewrite detected")
	for _, tpmOn := range []bool{false, true} {
		d, err := trusted(core.Options{EnableTPM: tpmOn, RequireTPM: tpmOn})
		if err != nil {
			return nil, err
		}
		h := metrics.NewHistogram("attest")
		for i := 0; i < runs; i++ {
			h.Time(func() {
				if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
					panic(err)
				}
			})
		}
		// Tamper test: run malware, then rewrite the software IML back to
		// the pre-tamper state.
		pre, _ := d.Hosts[0].IMA().Snapshot()
		d.Hosts[0].TamperBinary("fw-0", "/usr/bin/firewall", []byte("malware"))
		forged, err := ima.ParseList(pre)
		if err != nil {
			return nil, err
		}
		d.Hosts[0].IMA().TamperList(forged)
		app, err := d.VM.AttestHost(d.HostName(0))
		if err != nil {
			return nil, err
		}
		detected := "NO (paper §4 gap)"
		if !app.Trusted {
			detected = "YES"
		}
		name := "software IML"
		if tpmOn {
			name = "TPM-rooted IML"
		}
		t.AddRow(name, ms(h.Summarize().Mean), detected)
		d.Close()
	}
	return t, nil
}

func runE8(runs int) (*metrics.Table, error) {
	t := metrics.NewTable("E8 — enrollment scaling (n="+fmt.Sprint(runs)+")",
		"VNFs", "total mean", "per-VNF mean", "enrollments/s")
	for _, n := range []int{1, 4, 16} {
		d, err := trusted(core.Options{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := d.DeployVNF(0, fmt.Sprintf("fw-s%d", i), "firewall"); err != nil {
				return nil, err
			}
		}
		if err := d.LearnGolden(); err != nil {
			return nil, err
		}
		h := metrics.NewHistogram("batch")
		for r := 0; r < runs; r++ {
			if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := d.VM.EnrollVNF(d.HostName(0), fmt.Sprintf("fw-s%d", i)); err != nil {
					return nil, err
				}
			}
			h.Observe(time.Since(start))
			for i := 0; i < n; i++ {
				if err := d.VM.RevokeVNF(fmt.Sprintf("fw-s%d", i)); err != nil {
					return nil, err
				}
			}
		}
		mean := h.Summarize().Mean
		perVNF := mean / time.Duration(n)
		rate := float64(n) / mean.Seconds()
		t.AddRow(n, ms(mean), ms(perVNF), fmt.Sprintf("%.2f", rate))
		d.Close()
	}
	return t, nil
}

func runE9(runs int) (*metrics.Table, error) {
	d, err := trusted(core.Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		return nil, err
	}
	h := metrics.NewHistogram("revoke")
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("fw-e9-%d", i)
		if err := d.DeployVNF(0, name, "firewall"); err != nil {
			return nil, err
		}
		if err := d.LearnGolden(); err != nil {
			return nil, err
		}
		if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
			return nil, err
		}
		if _, err := d.VM.EnrollVNF(d.HostName(0), name); err != nil {
			return nil, err
		}
		h.Time(func() {
			if err := d.VM.RevokeVNF(name); err != nil {
				panic(err)
			}
		})
	}
	t := metrics.NewTable("E9 — revocation (n="+fmt.Sprint(runs)+")",
		"operation", "outcome", "mean latency")
	t.AddRow("revoke (CRL + enclave wipe)", "OK", ms(h.Summarize().Mean))

	// Post-revocation access check.
	if err := d.DeployVNF(0, "fw-e9-final", "firewall"); err != nil {
		return nil, err
	}
	if err := d.LearnGolden(); err != nil {
		return nil, err
	}
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		return nil, err
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-e9-final"); err != nil {
		return nil, err
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-e9-final")
	if err != nil {
		return nil, err
	}
	cfg, err := ce.ClientTLSConfig(core.ServerName)
	if err != nil {
		return nil, err
	}
	if err := d.VM.RevokeVNF("fw-e9-final"); err != nil {
		return nil, err
	}
	client := controller.NewClient(d.ControllerURL(), cfg)
	if _, err := client.Health(); err != nil {
		t.AddRow("controller session after revocation", "TLS REJECTED", "-")
	} else {
		t.AddRow("controller session after revocation", "ALLOWED (!!)", "-")
	}
	return t, nil
}

func runE10(runs int) (*metrics.Table, error) {
	if runs < 10 {
		runs = 10
	}
	d, err := trusted(core.Options{EnableTPM: true})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		return nil, err
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-0"); err != nil {
		return nil, err
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-0")
	if err != nil {
		return nil, err
	}
	signer, err := ce.Signer()
	if err != nil {
		return nil, err
	}
	model := simtime.DefaultCosts()
	t := metrics.NewTable("E10 — SGX substrate primitives (n="+fmt.Sprint(runs)+")",
		"primitive", "modeled cost", "measured mean")
	measure := func(name string, modeled time.Duration, fn func()) {
		h := metrics.NewHistogram(name)
		for i := 0; i < runs; i++ {
			h.Time(fn)
		}
		t.AddRow(name, modeled.String(), ms(h.Summarize().Mean))
	}
	digest := make([]byte, 32)
	measure("ECALL (sign)", model.Cost(simtime.OpECall), func() {
		if _, err := signer.Sign(nil, digest, nil); err != nil {
			panic(err)
		}
	})
	measure("ECALL (hmac)", model.Cost(simtime.OpECall), func() {
		if _, err := ce.HMAC([]byte("x")); err != nil {
			panic(err)
		}
	})
	measure("host evidence (EREPORT+quote)", model.Cost(simtime.OpQuote), func() {
		if _, err := d.Hosts[0].Attest([]byte("n"), false); err != nil {
			panic(err)
		}
	})
	measure("TPM quote", model.Cost(simtime.OpTPMQuote), func() {
		if _, err := d.Hosts[0].TPM().Quote([]byte("n"), []int{10}); err != nil {
			panic(err)
		}
	})
	return t, nil
}

// runE11 measures the transparency log's write path: per-entry commit
// latency unbatched (one tree-head signature per entry) against the
// batched appender (signature amortised over the batch).
func runE11(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	mkEntry := func(i int) translog.Entry {
		return translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: int64(i),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
		}
	}
	const perRun = 2048

	unbatched, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	hu := metrics.NewHistogram("unbatched")
	for r := 0; r < runs; r++ {
		hu.Time(func() {
			for i := 0; i < perRun; i++ {
				if _, err := unbatched.Append(mkEntry(i)); err != nil {
					panic(err)
				}
			}
		})
	}

	batched, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	app := translog.NewShardedAppender(batched, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
	defer app.Close()
	hb := metrics.NewHistogram("batched")
	for r := 0; r < runs; r++ {
		hb.Time(func() {
			for i := 0; i < perRun; i++ {
				if err := app.Append(mkEntry(i)); err != nil {
					panic(err)
				}
			}
			if err := app.Flush(); err != nil {
				panic(err)
			}
		})
	}

	perEntry := func(mean time.Duration) string {
		return fmt.Sprintf("%.2f µs", float64(mean)/float64(perRun)/float64(time.Microsecond))
	}
	uMean, bMean := hu.Summarize().Mean, hb.Summarize().Mean
	t := metrics.NewTable("E11 — transparency log appends (n="+fmt.Sprint(runs)+", "+fmt.Sprint(perRun)+" entries/run)",
		"variant", "per-entry latency", "speedup")
	t.AddRow("unbatched (sign per entry)", perEntry(uMean), "1.0×")
	t.AddRow("batched appender (256/batch)", perEntry(bMean),
		fmt.Sprintf("%.1f×", float64(uMean)/float64(bMean)))
	return t, nil
}

// runE12 measures the relying-party read path: proof generation plus full
// verification per credential lookup against a populated log.
func runE12(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	pub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	t := metrics.NewTable("E12 — inclusion proof verify (n="+fmt.Sprint(runs)+")",
		"log size", "lookup+prove+verify", "proof length")
	for _, population := range []int{256, 4096, 65536} {
		l, err := translog.NewLog(ca.Signer())
		if err != nil {
			return nil, err
		}
		batch := make([]translog.Entry, population)
		for i := range batch {
			batch[i] = translog.Entry{
				Type: translog.EntryEnroll, Timestamp: int64(i),
				Actor: fmt.Sprintf("fw-%d", i), Serial: fmt.Sprint(i),
			}
		}
		if _, err := l.AppendBatch(batch); err != nil {
			return nil, err
		}
		h := metrics.NewHistogram("verify")
		var proofLen int
		for i := 0; i < runs*64; i++ {
			serial := fmt.Sprint(i % population)
			h.Time(func() {
				pb, err := l.ProveSerial(serial)
				if err != nil {
					panic(err)
				}
				if err := pb.Verify(pub); err != nil {
					panic(err)
				}
				proofLen = len(pb.Proof)
			})
		}
		t.AddRow(fmt.Sprint(population), fmt.Sprintf("%.1f µs", float64(h.Summarize().Mean)/float64(time.Microsecond)), fmt.Sprintf("%d hashes", proofLen))
	}
	return t, nil
}

// runE13 measures what statedir durability costs the audit write path —
// batched appends over the WAL (records + one fsync + one atomic
// tree-head replacement per batch) against the in-memory appender — and
// how long crash recovery (replay + verify against the persisted signed
// head) takes as the log grows.
func runE13(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	mkEntry := func(i int) translog.Entry {
		return translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: int64(i),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
		}
	}
	const perRun = 2048

	appendAll := func(l *translog.Log) error {
		app := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
		defer app.Close()
		for i := 0; i < perRun; i++ {
			if err := app.Append(mkEntry(i)); err != nil {
				return err
			}
		}
		return app.Flush()
	}

	mem, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	hm := metrics.NewHistogram("in-memory")
	for r := 0; r < runs; r++ {
		hm.Time(func() {
			if err := appendAll(mem); err != nil {
				panic(err)
			}
		})
	}

	durDir, err := os.MkdirTemp("", "benchreport-translog-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(durDir)
	dur, err := translog.OpenDurableLog(ca.Signer(), durDir, translog.StoreConfig{})
	if err != nil {
		return nil, err
	}
	hd := metrics.NewHistogram("durable")
	for r := 0; r < runs; r++ {
		hd.Time(func() {
			if err := appendAll(dur); err != nil {
				panic(err)
			}
		})
	}
	if err := dur.Close(); err != nil {
		return nil, err
	}

	hr := metrics.NewHistogram("recovery")
	var recovered uint64
	for r := 0; r < runs; r++ {
		hr.Time(func() {
			re, err := translog.OpenDurableLog(ca.Signer(), durDir, translog.StoreConfig{})
			if err != nil {
				panic(err)
			}
			recovered = re.Size()
			if err := re.Close(); err != nil {
				panic(err)
			}
		})
	}

	perEntry := func(mean time.Duration) string {
		return fmt.Sprintf("%.2f µs", float64(mean)/float64(perRun)/float64(time.Microsecond))
	}
	mMean, dMean := hm.Summarize().Mean, hd.Summarize().Mean
	t := metrics.NewTable("E13 — durable log appends + recovery (n="+fmt.Sprint(runs)+", "+fmt.Sprint(perRun)+" entries/run)",
		"variant", "per-entry latency", "vs in-memory")
	t.AddRow("in-memory appender (256/batch)", perEntry(mMean), "1.0×")
	t.AddRow("durable WAL appender (256/batch)", perEntry(dMean),
		fmt.Sprintf("%.1f×", float64(dMean)/float64(mMean)))
	t.AddRow(fmt.Sprintf("crash recovery (%d entries)", recovered),
		fmt.Sprintf("%.1f ms total", float64(hr.Summarize().Mean)/float64(time.Millisecond)), "-")
	return t, nil
}

// runE14 measures the witness gossip protocol: the ECDSA verification
// every received head costs, and a full exchange round — served-head
// poll plus an HTTP head swap with each peer — at growing peer counts.
// The per-peer column is the marginal cost of widening the witness set.
func runE14(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	pub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	l, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	batch := make([]translog.Entry, 1024)
	for i := range batch {
		batch[i] = translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: int64(i),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
		}
	}
	if _, err := l.AppendBatch(batch); err != nil {
		return nil, err
	}
	logLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer logLn.Close()
	go http.Serve(logLn, translog.Handler(l))
	logURL := "http://" + logLn.Addr().String()

	t := metrics.NewTable("E14 — witness gossip exchange (n="+fmt.Sprint(runs)+")",
		"operation", "latency", "per peer")
	hv := metrics.NewHistogram("head-verify")
	sth := l.STH()
	for i := 0; i < runs*64; i++ {
		hv.Time(func() {
			if err := sth.Verify(pub); err != nil {
				panic(err)
			}
		})
	}
	t.AddRow("signed-head verification",
		fmt.Sprintf("%.1f µs", float64(hv.Summarize().Mean)/float64(time.Microsecond)), "-")

	for _, peers := range []int{1, 4, 8} {
		pool := translog.NewGossipPool("bench", translog.NewWitness(pub), translog.NewClient(logURL, pub))
		closers := make([]net.Listener, 0, peers)
		for i := 0; i < peers; i++ {
			peerPool := translog.NewGossipPool(fmt.Sprintf("peer-%d", i),
				translog.NewWitness(pub), translog.NewClient(logURL, pub))
			if err := peerPool.Exchange(); err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			closers = append(closers, ln)
			go http.Serve(ln, translog.GossipHandler(peerPool))
			pool.AddPeer(translog.NewClient("http://"+ln.Addr().String(), pub))
		}
		h := metrics.NewHistogram("exchange")
		for r := 0; r < runs*8; r++ {
			h.Time(func() {
				if err := pool.Exchange(); err != nil {
					panic(err)
				}
			})
		}
		for _, ln := range closers {
			ln.Close()
		}
		if pool.Conflict() != nil {
			return nil, fmt.Errorf("honest gossip convicted: %v", pool.Conflict())
		}
		mean := h.Summarize().Mean
		t.AddRow(fmt.Sprintf("exchange round (%d peers)", peers),
			fmt.Sprintf("%.2f ms", float64(mean)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f µs", float64(mean)/float64(peers)/float64(time.Microsecond)))
	}
	return t, nil
}

// runE15 measures the enclave-sealed monotonic head: what sealing every
// committed head (ECall + counter read + AEAD seal per batch, one
// atomic blob replacement, one counter bump) adds to the durable
// batched append path, and what the extra unseal + counter check adds
// to recovery. Budget: sealed appends must stay within 2.0x of the
// plain durable appender — the anchor work is per batch, so the
// appender amortises it like the fsync and the head signature.
func runE15(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	pub := ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	vendor, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	issuer, err := epid.NewIssuer(0xE15)
	if err != nil {
		return nil, err
	}
	platform, err := sgx.NewPlatform("bench-machine", issuer, simtime.DefaultCosts())
	if err != nil {
		return nil, err
	}
	mkEntry := func(i int) translog.Entry {
		return translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: int64(i),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
		}
	}
	const perRun = 2048
	appendAll := func(l *translog.Log) error {
		app := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1, MaxBatch: 256})
		defer app.Close()
		for i := 0; i < perRun; i++ {
			if err := app.Append(mkEntry(i)); err != nil {
				return err
			}
		}
		return app.Flush()
	}
	mkAnchor := func(dir string) []translog.TrustAnchor {
		a, err := translog.NewSealedHeadAnchor(platform, vendor,
			filepath.Join(dir, translog.SealedHeadFileName), pub)
		if err != nil {
			panic(err)
		}
		return []translog.TrustAnchor{a}
	}

	durDir, err := os.MkdirTemp("", "benchreport-e15-durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(durDir)
	dur, err := translog.OpenDurableLog(ca.Signer(), durDir, translog.StoreConfig{})
	if err != nil {
		return nil, err
	}
	hd := metrics.NewHistogram("durable")
	for r := 0; r < runs; r++ {
		hd.Time(func() {
			if err := appendAll(dur); err != nil {
				panic(err)
			}
		})
	}
	if err := dur.Close(); err != nil {
		return nil, err
	}

	sealDir, err := os.MkdirTemp("", "benchreport-e15-sealed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sealDir)
	sealed, err := translog.OpenDurableLog(ca.Signer(), sealDir, translog.StoreConfig{Anchors: mkAnchor(sealDir)})
	if err != nil {
		return nil, err
	}
	hs := metrics.NewHistogram("sealed")
	for r := 0; r < runs; r++ {
		hs.Time(func() {
			if err := appendAll(sealed); err != nil {
				panic(err)
			}
		})
	}
	if err := sealed.Close(); err != nil {
		return nil, err
	}

	hr := metrics.NewHistogram("sealed-recovery")
	var recovered uint64
	for r := 0; r < runs; r++ {
		hr.Time(func() {
			re, err := translog.OpenDurableLog(ca.Signer(), sealDir, translog.StoreConfig{Anchors: mkAnchor(sealDir)})
			if err != nil {
				panic(err)
			}
			recovered = re.Size()
			if err := re.Close(); err != nil {
				panic(err)
			}
		})
	}

	perEntry := func(mean time.Duration) string {
		return fmt.Sprintf("%.2f µs", float64(mean)/float64(perRun)/float64(time.Microsecond))
	}
	dMean, sMean := hd.Summarize().Mean, hs.Summarize().Mean
	ratio := float64(sMean) / float64(dMean)
	verdict := "within ≤2.0× budget"
	if ratio > 2.0 {
		verdict = "OVER ≤2.0× budget"
	}
	t := metrics.NewTable("E15 — enclave-sealed monotonic head (n="+fmt.Sprint(runs)+", "+fmt.Sprint(perRun)+" entries/run)",
		"variant", "per-entry latency", "vs durable")
	t.AddRow("durable WAL appender (256/batch)", perEntry(dMean), "1.0×")
	t.AddRow("sealed WAL appender (256/batch)", perEntry(sMean),
		fmt.Sprintf("%.2f× (%s)", ratio, verdict))
	t.AddRow(fmt.Sprintf("sealed recovery (%d entries)", recovered),
		fmt.Sprintf("%.1f ms total", float64(hr.Summarize().Mean)/float64(time.Millisecond)), "-")
	return t, nil
}

// runE16 measures what per-host WAL streams buy as the producing host
// count grows: the same appender (per-host buffers, merging sequencer
// committing up to hosts×1024 entries as ONE merged Merkle batch per
// cycle — one signature, one head, one anchor bump) over an unsharded
// durable store (1-stream: every record in one segment stream) against
// a 16-stream store, whose per-host segment fsyncs overlap. Target: a
// sharded per-entry durable cost within 1.5x of the E13 baseline, the
// single-producer durable append over an unsharded store.
func runE16(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	var actors, hostNames [64]string
	for i := range actors {
		actors[i] = fmt.Sprintf("fw-%d", i)
		hostNames[i] = fmt.Sprintf("host-%d", i)
	}
	const perRun = 1 << 16
	produce := func(ap *translog.ShardedAppender, hosts int) error {
		var wg sync.WaitGroup
		errs := make([]error, hosts)
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				host := hostNames[h]
				for i := h; i < perRun; i += hosts {
					e := translog.Entry{
						Type: translog.EntryAttestOK, Timestamp: int64(1700000000000 + i),
						Actor: actors[i%64], Host: host, Detail: "OK",
					}
					if err := ap.Append(e); err != nil {
						errs[h] = err
						return
					}
				}
			}(h)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return ap.Flush()
	}
	measure := func(hosts int, sharded bool) (time.Duration, error) {
		dir, err := os.MkdirTemp("", "benchreport-e16-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg := translog.StoreConfig{}
		if sharded {
			cfg.Shards = 16
		}
		l, err := translog.OpenDurableLog(ca.Signer(), dir, cfg)
		if err != nil {
			return 0, err
		}
		defer l.Close()
		ap := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{})
		// One untimed warm-up run: the first pass grows buffers, arenas
		// and tree levels that steady state recycles.
		if err := produce(ap, hosts); err != nil {
			return 0, err
		}
		h := metrics.NewHistogram("append")
		for r := 0; r < runs; r++ {
			var perr error
			h.Time(func() { perr = produce(ap, hosts) })
			if perr != nil {
				return 0, perr
			}
		}
		if err := ap.Close(); err != nil {
			return 0, err
		}
		if want := uint64(perRun) * uint64(runs+1); l.Size() != want {
			return 0, fmt.Errorf("E16: committed %d of %d entries", l.Size(), want)
		}
		return h.Summarize().Mean, nil
	}

	// The E13 baseline for the per-entry budget: one producer over the
	// unsharded durable store.
	e13Mean, err := measure(1, false)
	if err != nil {
		return nil, err
	}
	perEntry := func(mean time.Duration) float64 {
		return float64(mean) / float64(perRun) / float64(time.Microsecond)
	}
	throughput := func(mean time.Duration) float64 {
		return float64(perRun) / (float64(mean) / float64(time.Second)) / 1e6
	}

	t := metrics.NewTable("E16 — per-host WAL stream scaling (n="+fmt.Sprint(runs)+", "+fmt.Sprint(perRun)+" entries/run, durable WAL)",
		"hosts × store", "per-entry latency", "throughput", "speedup")
	t.AddRow("1 × 1-stream (E13 baseline)", fmt.Sprintf("%.2f µs", perEntry(e13Mean)),
		fmt.Sprintf("%.2f M entries/s", throughput(e13Mean)), "1.0×")
	var final string
	for _, hosts := range []int{1, 4, 16} {
		oneStream := e13Mean
		if hosts != 1 {
			if oneStream, err = measure(hosts, false); err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d × 1-stream", hosts), fmt.Sprintf("%.2f µs", perEntry(oneStream)),
				fmt.Sprintf("%.2f M entries/s", throughput(oneStream)), "-")
		}
		sharded, err := measure(hosts, true)
		if err != nil {
			return nil, err
		}
		if hosts == 16 {
			costRatio := perEntry(sharded) / perEntry(e13Mean)
			costVerdict := "within ≤1.5x E13 budget"
			if costRatio > 1.5 {
				costVerdict = "OVER ≤1.5x E13 budget"
			}
			final = fmt.Sprintf("%.2f× E13 per-entry durable cost (%s)", costRatio, costVerdict)
		}
		t.AddRow(fmt.Sprintf("%d × sharded-16", hosts), fmt.Sprintf("%.2f µs", perEntry(sharded)),
			fmt.Sprintf("%.2f M entries/s", throughput(sharded)),
			fmt.Sprintf("%.2f× vs 1-stream", float64(oneStream)/float64(sharded)))
	}
	t.AddRow("sharded-16 @ 16 hosts vs E13", final, "-", "-")
	return t, nil
}

// runE17 measures what the telemetry layer costs the hottest path (the
// E16 16-host sharded run) — instrumented vs registry-disabled — and
// scrapes the live /metrics endpoint mid-workload to prove every
// sequencer phase histogram is present while the log commits. The
// acceptance bar is instrumented throughput within 5% of
// uninstrumented.
func runE17(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	var actors, hostNames [64]string
	for i := range actors {
		actors[i] = fmt.Sprintf("fw-%d", i)
		hostNames[i] = fmt.Sprintf("host-%d", i)
	}
	const perRun = 1 << 16
	const hosts = 16
	produce := func(ap *translog.ShardedAppender) error {
		var wg sync.WaitGroup
		errs := make([]error, hosts)
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				host := hostNames[h]
				for i := h; i < perRun; i += hosts {
					e := translog.Entry{
						Type: translog.EntryAttestOK, Timestamp: int64(1700000000000 + i),
						Actor: actors[i%64], Host: host, Detail: "OK",
					}
					if err := ap.Append(e); err != nil {
						errs[h] = err
						return
					}
				}
			}(h)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return ap.Flush()
	}
	// Telemetry endpoint for the mid-workload scrape.
	ln, err := obs.Default().Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	metricsURL := "http://" + ln.Addr().String() + "/metrics"
	var scraped string
	measure := func(enabled bool) (time.Duration, error) {
		obs.Default().SetEnabled(enabled)
		defer obs.Default().SetEnabled(true)
		dir, err := os.MkdirTemp("", "benchreport-e17-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		l, err := translog.OpenDurableLog(ca.Signer(), dir, translog.StoreConfig{Shards: 16})
		if err != nil {
			return 0, err
		}
		defer l.Close()
		ap := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{})
		if err := produce(ap); err != nil { // warm-up
			return 0, err
		}
		h := metrics.NewHistogram("append")
		for r := 0; r < runs; r++ {
			var perr error
			h.Time(func() { perr = produce(ap) })
			if perr != nil {
				return 0, perr
			}
			if enabled && r == 0 {
				// Scrape mid-workload: the appender is live, cycles are
				// committing, and every phase series must already be there.
				resp, err := http.Get(metricsURL)
				if err != nil {
					return 0, fmt.Errorf("E17: scraping %s: %w", metricsURL, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return 0, err
				}
				scraped = string(body)
			}
		}
		if err := ap.Close(); err != nil {
			return 0, err
		}
		return h.Summarize().Mean, nil
	}

	off, err := measure(false)
	if err != nil {
		return nil, err
	}
	on, err := measure(true)
	if err != nil {
		return nil, err
	}
	phases := []string{"gather", "marshal", "merkle", "sign", "wal_sync", "anchor_commit"}
	for _, phase := range phases {
		series := fmt.Sprintf(`translog_cycle_phase_seconds_count{phase=%q}`, phase)
		if !strings.Contains(scraped, series) {
			return nil, fmt.Errorf("E17: mid-workload /metrics scrape is missing %s", series)
		}
	}

	perEntry := func(mean time.Duration) float64 {
		return float64(mean) / float64(perRun) / float64(time.Microsecond)
	}
	throughput := func(mean time.Duration) float64 {
		return float64(perRun) / (float64(mean) / float64(time.Second)) / 1e6
	}
	overhead := (float64(on) - float64(off)) / float64(off) * 100
	verdict := "within ≤5% budget"
	if overhead > 5.0 {
		verdict = "OVER ≤5% budget"
	}
	t := metrics.NewTable("E17 — telemetry overhead (n="+fmt.Sprint(runs)+", "+fmt.Sprint(perRun)+" entries/run, sharded-16 @ 16 hosts, durable WAL)",
		"variant", "per-entry latency", "throughput", "verdict")
	t.AddRow("uninstrumented (registry disabled)", fmt.Sprintf("%.2f µs", perEntry(off)),
		fmt.Sprintf("%.2f M entries/s", throughput(off)), "baseline")
	t.AddRow("instrumented (full telemetry)", fmt.Sprintf("%.2f µs", perEntry(on)),
		fmt.Sprintf("%.2f M entries/s", throughput(on)), fmt.Sprintf("%+.2f%% (%s)", overhead, verdict))
	t.AddRow("mid-workload /metrics scrape", fmt.Sprintf("%d phase series", len(phases)),
		"all present", "ok")
	return t, nil
}

// runE18 measures what the anchor-verified checkpoint buys the restart
// path across three orders of magnitude of log population: a full
// replay reopens every record ever written (linear in history), while a
// checkpointed reopen seeds the tree from the frozen subtree hashes and
// replays only the short WAL suffix past the checkpoint, so it must
// stay flat — within 2x of the smallest population — as the log grows.
func runE18(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	mkEntry := func(i int) translog.Entry {
		return translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: int64(i),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
		}
	}
	const suffix = 256
	const chunk = 8192

	build := func(size int, checkpointed bool) (string, error) {
		dir, err := os.MkdirTemp("", "benchreport-ckpt-")
		if err != nil {
			return "", err
		}
		l, err := translog.OpenDurableLog(ca.Signer(), dir, translog.StoreConfig{NoSync: true})
		if err != nil {
			return "", err
		}
		for at := 0; at < size-suffix; at += chunk {
			n := chunk
			if at+n > size-suffix {
				n = size - suffix - at
			}
			batch := make([]translog.Entry, n)
			for i := range batch {
				batch[i] = mkEntry(at + i)
			}
			if _, err := l.AppendBatch(batch); err != nil {
				return "", err
			}
		}
		if checkpointed {
			if err := l.Checkpoint(); err != nil {
				return "", err
			}
		}
		tail := make([]translog.Entry, suffix)
		for i := range tail {
			tail[i] = mkEntry(size - suffix + i)
		}
		if _, err := l.AppendBatch(tail); err != nil {
			return "", err
		}
		return dir, l.Close()
	}

	sizes := []int{10_000, 100_000, 1_000_000}
	type point struct {
		full, ckpt time.Duration
	}
	points := make([]point, len(sizes))
	for si, size := range sizes {
		for _, checkpointed := range []bool{false, true} {
			dir, err := build(size, checkpointed)
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			h := metrics.NewHistogram("open")
			for r := 0; r < runs; r++ {
				h.Time(func() {
					re, err := translog.OpenDurableLog(ca.Signer(), dir, translog.StoreConfig{NoSync: true})
					if err != nil {
						panic(err)
					}
					if re.Size() != uint64(size) {
						panic("short recovery")
					}
					if err := re.Close(); err != nil {
						panic(err)
					}
				})
			}
			if checkpointed {
				points[si].ckpt = h.Summarize().Mean
			} else {
				points[si].full = h.Summarize().Mean
			}
		}
	}

	inMs := func(d time.Duration) string {
		return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
	}
	smallest := points[0].ckpt
	t := metrics.NewTable("E18 — checkpointed recovery vs full replay (n="+fmt.Sprint(runs)+", "+fmt.Sprint(suffix)+"-entry suffix)",
		"population", "full replay", "checkpointed open", "speedup", "verdict")
	for si, size := range sizes {
		verdict := "flat (≤2x smallest)"
		if points[si].ckpt > 2*smallest {
			verdict = "NOT FLAT (>2x smallest)"
		}
		t.AddRow(fmt.Sprint(size), inMs(points[si].full), inMs(points[si].ckpt),
			fmt.Sprintf("%.1f×", float64(points[si].full)/float64(points[si].ckpt)), verdict)
	}
	return t, nil
}

// runE19 measures tile-based proof serving at the scale the design is
// for: a 10^6-entry log served over HTTP, and an auditor that needs
// inclusion proofs for a recurring working set of credentials. The
// baseline asks the per-request InclusionProof endpoint (one round trip
// per proof, the server walks its tree each time). The tile modes
// assemble the same proofs client-side from content-addressed tiles:
// cold thrashes a tiny LRU (every proof re-fetches its tiles), warm
// holds the working set's tiles pre-expanded, so a proof costs a few
// array reads and zero HTTP. Every proof is verified against the tree
// root in all modes. The acceptance verdict: warm tile assembly must
// beat the endpoint by ≥10x.
func runE19(runs int) (*metrics.Table, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	l, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	const population = 1_000_000
	const chunk = 8192
	leaves := make([]translog.Hash, 0, population)
	for at := 0; at < population; at += chunk {
		n := chunk
		if at+n > population {
			n = population - at
		}
		batch := make([]translog.Entry, n)
		for i := range batch {
			batch[i] = translog.Entry{
				Type: translog.EntryAttestOK, Timestamp: int64(at + i),
				Actor: fmt.Sprintf("fw-%d", at+i), Host: "host-0", Detail: "OK",
			}
			leaves = append(leaves, translog.LeafHash(batch[i].Marshal()))
		}
		if _, err := l.AppendBatch(batch); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go http.Serve(ln, translog.Handler(l))
	url := "http://" + ln.Addr().String()
	sth := l.STH()

	// The auditor's working set: a fixed cycle of indices spread across
	// the whole tree, so the warm mode can cover it up front.
	const workingSet = 2048
	const proofsPerRun = 3000
	index := func(i int) uint64 { return uint64((i%workingSet)*7919) % population }
	prove := func(i int, proofs func(index, size uint64) ([]translog.Hash, error)) error {
		idx := index(i)
		proof, err := proofs(idx, population)
		if err != nil {
			return err
		}
		return translog.VerifyInclusion(leaves[idx], idx, population, proof, sth.RootHash)
	}

	type mode struct {
		name  string
		setup func() (func(index, size uint64) ([]translog.Hash, error), *translog.TileAssembler, error)
	}
	modes := []mode{
		{"endpoint", func() (func(index, size uint64) ([]translog.Hash, error), *translog.TileAssembler, error) {
			return translog.NewClient(url, nil).InclusionProof, nil, nil
		}},
		{"tile-cold", func() (func(index, size uint64) ([]translog.Hash, error), *translog.TileAssembler, error) {
			asm := translog.NewTileAssembler(translog.NewClient(url, nil), 4)
			return asm.InclusionProof, asm, nil
		}},
		{"tile-warm", func() (func(index, size uint64) ([]translog.Hash, error), *translog.TileAssembler, error) {
			asm := translog.NewTileAssembler(translog.NewClient(url, nil), 16384)
			for i := 0; i < workingSet; i++ { // pull the whole working set in
				if err := prove(i, asm.InclusionProof); err != nil {
					return nil, nil, err
				}
			}
			return asm.InclusionProof, asm, nil
		}},
	}

	type result struct {
		mean     time.Duration
		hitRatio string
	}
	results := make([]result, len(modes))
	for mi, m := range modes {
		proofs, asm, err := m.setup()
		if err != nil {
			return nil, err
		}
		h := metrics.NewHistogram(m.name)
		for r := 0; r < runs; r++ {
			for i := 0; i < proofsPerRun; i++ {
				i := i
				var perr error
				h.Time(func() { perr = prove(r*proofsPerRun+i, proofs) })
				if perr != nil {
					return nil, fmt.Errorf("%s: %w", m.name, perr)
				}
			}
		}
		results[mi] = result{mean: h.Summarize().Mean, hitRatio: "n/a"}
		if asm != nil {
			hits, misses := asm.Stats()
			results[mi].hitRatio = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
	}

	baseline := results[0].mean
	t := metrics.NewTable(fmt.Sprintf("E19 — tile-based proof serving at 10^6 entries (n=%d, %d proofs/run, %d-index working set)",
		runs, proofsPerRun, workingSet),
		"mode", "mean/proof", "proofs/sec", "tile cache hits", "vs endpoint", "verdict")
	for mi, m := range modes {
		r := results[mi]
		speedup := float64(baseline) / float64(r.mean)
		verdict := ""
		if m.name == "tile-warm" {
			verdict = ">=10x (pass)"
			if speedup < 10 {
				verdict = "BELOW 10x"
			}
		}
		t.AddRow(m.name,
			fmt.Sprintf("%.1f µs", float64(r.mean)/float64(time.Microsecond)),
			fmt.Sprintf("%.0f", float64(time.Second)/float64(r.mean)),
			r.hitRatio,
			fmt.Sprintf("%.1f×", speedup),
			verdict)
	}
	return t, nil
}

// runE20 measures the partitioned audit plane's scaling claim: as the
// fleet grows 16 -> 64 -> 256 hosts (shards scale with hosts, the
// witness set scales with the fleet, the quorum stays fixed at 3), one
// witness's full audit pass over its assigned slice must stay flat —
// within 1.5x of the 16-host cost — while a full-fleet witness with
// every shard assigned grows linearly. That flatness is what lets the
// deployment add hosts without adding per-witness verification burden.
func runE20(runs int) (*metrics.Table, error) {
	const perHost = 16
	const quorum = 3
	const passesPerRun = 8
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	pub, ok := ca.Signer().Public().(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("CA signer is not ECDSA")
	}

	fleets := []int{16, 64, 256}
	type point struct {
		hosts                 int
		assigned              int
		perWitness, fullFleet time.Duration
	}
	points := make([]point, 0, len(fleets))
	for _, hosts := range fleets {
		shards := hosts
		names := make([]string, hosts/2)
		for i := range names {
			names[i] = fmt.Sprintf("w%03d", i)
		}
		part, err := translog.NewWitnessPartition(shards, names, quorum)
		if err != nil {
			return nil, err
		}
		l, err := translog.NewLog(ca.Signer())
		if err != nil {
			return nil, err
		}
		if err := l.EnableShardStreams(shards); err != nil {
			return nil, err
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
			return nil, err
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
		measure := func(assigned []int, label string) (time.Duration, error) {
			h := metrics.NewHistogram(label)
			for r := 0; r < runs; r++ {
				for i := 0; i < passesPerRun; i++ {
					var aerr error
					h.Time(func() { aerr = audit(assigned) })
					if aerr != nil {
						return 0, fmt.Errorf("%s at %d hosts: %w", label, hosts, aerr)
					}
				}
			}
			return h.Summarize().Mean, nil
		}
		slice := part.AssignedShards(names[0])
		pw, err := measure(slice, "per-witness")
		if err != nil {
			return nil, err
		}
		ff, err := measure(all, "full-fleet")
		if err != nil {
			return nil, err
		}
		points = append(points, point{hosts: hosts, assigned: len(slice), perWitness: pw, fullFleet: ff})
	}

	base := points[0]
	t := metrics.NewTable(fmt.Sprintf(
		"E20 — partitioned witness audit vs fleet size (n=%d, %d passes/run, %d entries/host, Q=%d, witnesses=hosts/2)",
		runs, passesPerRun, perHost, quorum),
		"hosts", "assigned shards", "per-witness pass", "vs 16 hosts", "full-fleet pass", "vs 16 hosts", "verdict")
	for _, p := range points {
		growth := float64(p.perWitness) / float64(base.perWitness)
		verdict := ""
		if p.hosts == fleets[len(fleets)-1] {
			verdict = "flat <=1.5x (pass)"
			if growth > 1.5 {
				verdict = "NOT FLAT"
			}
		}
		t.AddRow(fmt.Sprint(p.hosts),
			fmt.Sprint(p.assigned),
			fmt.Sprintf("%.2f ms", float64(p.perWitness)/float64(time.Millisecond)),
			fmt.Sprintf("%.2f×", growth),
			fmt.Sprintf("%.2f ms", float64(p.fullFleet)/float64(time.Millisecond)),
			fmt.Sprintf("%.2f×", float64(p.fullFleet)/float64(base.fullFleet)),
			verdict)
	}
	return t, nil
}
