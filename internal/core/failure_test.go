package core

import (
	"errors"
	"net"
	"strings"
	"testing"

	"vnfguard/internal/controller"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/host"
	"vnfguard/internal/verifier"
)

// TestHostAgentFailureMidWorkflow kills the host agent's HTTP endpoint
// between host attestation and enrollment; the Verification Manager must
// surface a transport error, not hang or mis-enroll.
func TestHostAgentFailureMidWorkflow(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		HTTPTransports: true,
	})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	// Kill the agent endpoints.
	for _, srv := range d.AgentServers() {
		srv.Close()
	}
	_, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err == nil {
		t.Fatal("enrollment succeeded against a dead agent")
	}
	if len(d.VM.Enrollments()) != 0 {
		t.Fatal("phantom enrollment recorded")
	}
}

// TestEnclaveDestroyedMidWorkflow stops the container (destroying its
// credential enclave) after host attestation; enrollment must fail with a
// clear error.
func TestEnclaveDestroyedMidWorkflow(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	containers := d.Hosts[0].Containers()
	if err := d.Hosts[0].StopContainer(containers[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-1"); err == nil {
		t.Fatal("enrolled a destroyed enclave")
	}
}

// TestTPMWorkflowOverHTTP runs the §4 extension across real sockets.
func TestTPMWorkflowOverHTTP(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		EnableTPM: true, RequireTPM: true, HTTPTransports: true,
	})
	app, err := d.VM.AttestHost(d.HostName(0))
	if err != nil {
		t.Fatal(err)
	}
	if !app.Trusted || !app.TPMVerified {
		t.Fatalf("appraisal = %+v", app)
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-1"); err != nil {
		t.Fatal(err)
	}
}

// TestCSRProvisioningOverHTTP exercises the CSR mode across the agent's
// HTTP relay (the CSR round adds an extra secure-channel exchange).
func TestCSRProvisioningOverHTTP(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Provision: enclaveapp.ModeCSR, HTTPTransports: true,
	})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VM.CA().VerifyClient(enr.Cert); err != nil {
		t.Fatal(err)
	}
}

// TestRevocationAfterHostGone revokes an enrollment whose host agent has
// disappeared: the certificate must land on the CRL even though the
// enclave wipe cannot be delivered.
func TestRevocationAfterHostGone(t *testing.T) {
	d := newTrustedDeployment(t, Options{HTTPTransports: true})
	if _, err := d.VM.AttestHost(d.HostName(0)); err != nil {
		t.Fatal(err)
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range d.AgentServers() {
		srv.Close()
	}
	err = d.VM.RevokeVNF("fw-1")
	if err == nil {
		t.Fatal("expected wipe-failure error")
	}
	if !strings.Contains(err.Error(), "certificate revoked anyway") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The wipe error keeps its cause: the provisioning-channel sentinel
	// and the host agent's network error behind it.
	var netErr net.Error
	if !errors.Is(err, verifier.ErrProvisionTimeout) || !errors.As(err, &netErr) {
		t.Fatalf("wipe error lost its cause: %v", err)
	}
	if !d.VM.CA().IsRevoked(enr.Cert.SerialNumber) {
		t.Fatal("certificate not revoked despite dead host")
	}
	if _, err := d.VM.Enrollment("fw-1"); !errors.Is(err, verifier.ErrNotEnrolled) {
		t.Fatal("enrollment record survived")
	}
}

// TestStopContainerByState verifies container bookkeeping across stop.
func TestStopContainerByState(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	cs := d.Hosts[0].Containers()
	if len(cs) != 1 || cs[0].State != host.StateRunning {
		t.Fatalf("containers = %+v", cs)
	}
	if err := d.Hosts[0].StopContainer(cs[0].ID); err != nil {
		t.Fatal(err)
	}
	cs = d.Hosts[0].Containers()
	if cs[0].State != host.StateStopped {
		t.Fatalf("state = %v", cs[0].State)
	}
}
