package core

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/vnf"
)

// Step is one timed step of the Figure-1 workflow.
type Step struct {
	Number   int
	Name     string
	Duration time.Duration
	Detail   string
}

// WorkflowResult is the outcome of one end-to-end run.
type WorkflowResult struct {
	Steps    []Step
	Total    time.Duration
	Enrolled []string
}

// String renders the trace as the Figure-1 step list.
func (r *WorkflowResult) String() string {
	var b strings.Builder
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  step %d  %-42s %12v  %s\n", s.Number, s.Name, s.Duration.Round(10*time.Microsecond), s.Detail)
	}
	fmt.Fprintf(&b, "  total   %-42s %12v\n", "", r.Total.Round(10*time.Microsecond))
	return b.String()
}

// DefaultEnv is the standard VNF placement: programming switch 00:00:01
// between the external client (port 1) and the service (port 2).
func DefaultEnv() vnf.Env {
	return vnf.Env{Switch: "00:00:01", InPort: 1, OutPort: 2}
}

// StandardFirewall is the canonical demo VNF: allow HTTPS to the service
// network, drop everything else.
func StandardFirewall(name string) *vnf.Firewall {
	return &vnf.Firewall{
		InstanceName: name,
		Rules: []vnf.FWRule{
			{Allow: true, Proto: "tcp", DstPort: 443, Dst: netip.MustParsePrefix("10.0.0.0/24")},
			{Allow: false, Proto: "tcp", DstPort: 22},
		},
	}
}

// RunWorkflow executes the six steps of Figure 1 for the named VNFs on
// one host and returns the per-step trace:
//
//  1. the Verification Manager initiates remote attestation of the
//     container host (evidence collection),
//  2. the VM verifies the quote with IAS and appraises the IML,
//  3. the VM initiates remote attestation of the VNF enclaves,
//  4. the VM verifies the enclave quotes with IAS,
//  5. the VM generates and provisions credentials,
//  6. the VNFs establish TLS sessions from their enclaves and program
//     the network through the controller.
//
// Steps 3–4 and 5 repeat per VNF; their durations are summed.
func (d *Deployment) RunWorkflow(hostIdx int, vnfs []vnf.VNF) (*WorkflowResult, error) {
	if hostIdx < 0 || hostIdx >= len(d.Hosts) {
		return nil, fmt.Errorf("core: host index %d out of range", hostIdx)
	}
	hostName := d.HostName(hostIdx)
	res := &WorkflowResult{}
	start := time.Now()

	// Capture per-phase timings from the manager.
	var mu sync.Mutex
	phases := map[string]time.Duration{}
	d.VM.SetTracer(func(phase string, dur time.Duration) {
		mu.Lock()
		phases[phase] += dur
		mu.Unlock()
	})
	defer d.VM.SetTracer(nil)

	// Steps 1–2: host attestation and appraisal.
	app, err := d.VM.AttestHost(hostName)
	if err != nil {
		return nil, fmt.Errorf("core: host attestation: %w", err)
	}
	if !app.Trusted {
		return nil, fmt.Errorf("core: host %s not trusted: %v", hostName, app.Findings)
	}
	res.Steps = append(res.Steps,
		Step{1, "remote attestation of container host", phases["host-evidence"],
			fmt.Sprintf("IML entries: %d", app.IMLEntries)},
		Step{2, "IAS verification and IML appraisal", phases["host-appraisal"],
			fmt.Sprintf("quote status: %s, TPM: %v", app.QuoteStatus, app.TPMVerified)},
	)

	// Steps 3–5 per VNF.
	for _, v := range vnfs {
		if _, err := d.VM.EnrollVNF(hostName, v.Name()); err != nil {
			return nil, fmt.Errorf("core: enrolling %s: %w", v.Name(), err)
		}
		res.Enrolled = append(res.Enrolled, v.Name())
	}
	mu.Lock()
	// Step 4 runs inside step 3's exchange (msg3 carries the quote);
	// step 3 reports the exchange without it.
	iasDur := phases["vnf-quote-verification"]
	raDur, provDur := phases["vnf-attestation"]-iasDur, phases["provisioning"]
	mu.Unlock()
	res.Steps = append(res.Steps,
		Step{3, "remote attestation of VNF enclaves", raDur,
			fmt.Sprintf("%d enclave(s), RA key exchange", len(vnfs))},
		Step{4, "IAS verification of enclave quotes", iasDur,
			fmt.Sprintf("%d quote(s), within the exchange", len(vnfs))},
		Step{5, "credential generation and provisioning", provDur,
			fmt.Sprintf("mode: %s", provisionModeName(d))},
	)

	// Step 6: authenticated controller sessions from the enclaves.
	step6Start := time.Now()
	env := DefaultEnv()
	pushed := 0
	for _, v := range vnfs {
		ce, err := d.Hosts[hostIdx].CredentialEnclave(v.Name())
		if err != nil {
			return nil, err
		}
		inst, err := vnf.NewInstance(v, ce, d.ControllerURL(), ServerName, env, d.Opts.TLSMode)
		if err != nil {
			return nil, fmt.Errorf("core: connecting %s: %w", v.Name(), err)
		}
		if err := inst.Activate(); err != nil {
			return nil, fmt.Errorf("core: activating %s: %w", v.Name(), err)
		}
		pushed += len(v.Flows(env))
		inst.Client().CloseIdle()
	}
	res.Steps = append(res.Steps, Step{6, "VNF ↔ controller TLS from enclave", time.Since(step6Start),
		fmt.Sprintf("%d flow(s) pushed over %s, %s", pushed, d.Opts.Mode, d.Opts.TLSMode)})

	res.Total = time.Since(start)
	return res, nil
}

func provisionModeName(d *Deployment) string {
	if d.Opts.Provision == "" {
		return "vm-generated"
	}
	return string(d.Opts.Provision)
}
