package main

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/obs"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

const (
	// slotsPerClient is each onboard client's fixed VNF pool. It is fixed
	// because every DeployVNF grows the host IML, so fresh slots would make
	// appraisal cost drift during the run.
	slotsPerClient = 4
	// entriesPerOnboarding is what one Figure-1 onboarding plus its
	// revocation commits: host attestation, enclave attestation,
	// enrollment, provisioning and revocation.
	entriesPerOnboarding = 5

	nbPoolSize  = 8
	nbBlock     = 16 // requests per connection; the first one connects
	churnPeriod = time.Second
	historySize = 1_000_000
)

// fleet is one set-up deployment with the VNFs a workload drives.
type fleet struct {
	d      *core.Deployment
	logDir string
	caPub  *ecdsa.PublicKey
	env    vnf.Env

	// onboard and onboard-cpu: one host and slot pool per client.
	slots [][]*slot
	// stagger spreads the clients' start times evenly over one warm-up
	// onboarding. Under modeled costs an onboarding is mostly sleep, so
	// the closed loops keep the phase they start with: started together,
	// their CPU-bound steps would collide in some runs and not in others.
	stagger time.Duration
	// northbound: the REST client's pool on host 0 and the churn VNF on
	// host 1.
	pool  []*slot
	churn *slot
}

// slot is one deployed VNF with its credential enclave.
type slot struct {
	host string
	v    *vnf.Firewall
	ce   *enclaveapp.CredentialEnclave
	inst *vnf.Instance
	flow controller.FlowSpec // the one flow a northbound VNF pushes
}

// tally is one load goroutine's results; it is merged after the phase.
type tally struct {
	rec                    *recorder
	end                    time.Time
	ops, attempted, failed int
	checks                 int
	onboardings            int
	attests, enrolls       int
	blocks                 int
	verifierErrors         int
	opLat, connect, revoke []time.Duration
	done                   []time.Time // completion time of each counted operation
	late                   []time.Duration
	errs                   []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// phase is the merged result of one measured window.
type phase struct {
	tally
	start time.Time
	rd    delta
}

func (p *phase) merge(ts []*tally) {
	for _, t := range ts {
		// Throughput runs to the end of the last goroutine that completes
		// the workload's counted operations; the churn client counts none.
		if t.ops > 0 && t.end.After(p.end) {
			p.end = t.end
		}
		p.ops += t.ops
		p.attempted += t.attempted
		p.failed += t.failed
		p.checks += t.checks
		p.onboardings += t.onboardings
		p.attests += t.attests
		p.enrolls += t.enrolls
		p.blocks += t.blocks
		p.verifierErrors += t.verifierErrors
		p.opLat = append(p.opLat, t.opLat...)
		p.connect = append(p.connect, t.connect...)
		p.revoke = append(p.revoke, t.revoke...)
		p.done = append(p.done, t.done...)
		p.late = append(p.late, t.late...)
		p.errs = append(p.errs, t.errs...)
	}
}

func newFleet(w *workload, seed int64, dir string) (*fleet, error) {
	logDir, err := os.MkdirTemp(dir, "log-")
	if err != nil {
		return nil, err
	}
	d, err := core.NewDeployment(core.Options{
		Model:    w.costs(),
		Mode:     controller.ModeTrustedHTTPS,
		Trust:    controller.TrustCA,
		TLSMode:  enclaveapp.TLSFullSession,
		NumHosts: 2,
		LogDir:   logDir,
	})
	if err != nil {
		os.RemoveAll(logDir)
		return nil, err
	}
	f := &fleet{
		d: d, logDir: logDir, env: core.DefaultEnv(),
		caPub: d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey),
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	if err := w.setup(f, rng); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	f.d.Close()
	os.RemoveAll(f.logDir)
}

// deploy runs a seeded firewall as a container on host i.
func (f *fleet) deploy(i int, name string, rng *rand.Rand) (*slot, error) {
	if err := f.d.DeployVNF(i, name, "firewall"); err != nil {
		return nil, err
	}
	ce, err := f.d.Hosts[i].CredentialEnclave(name)
	if err != nil {
		return nil, err
	}
	v := &vnf.Firewall{InstanceName: name, Rules: []vnf.FWRule{
		{Allow: true, Proto: "tcp", DstPort: uint16(1 + rng.IntN(1024)), Dst: randPrefix(rng)},
		{Allow: false, Proto: "tcp", DstPort: uint16(1025 + rng.IntN(60000))},
	}}
	fl := v.Flows(f.env)[0]
	fl.Name = name + "-nb"
	return &slot{host: f.d.HostName(i), v: v, ce: ce, flow: fl}, nil
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	a := netip.AddrFrom4([4]byte{10, byte(rng.IntN(256)), byte(rng.IntN(256)), 0})
	return netip.PrefixFrom(a, 24)
}

func (f *fleet) connect(s *slot) (*vnf.Instance, error) {
	return vnf.NewInstance(s.v, s.ce, f.d.ControllerURL(), core.ServerName, f.env, enclaveapp.TLSFullSession)
}

// attest runs steps 1–2 for a host.
func (f *fleet) attest(t *tally, host string) error {
	id := t.rec.begin("verifier.attest_host")
	app, err := f.d.VM.AttestHost(host)
	t.rec.end(id)
	t.attests++
	if err != nil {
		t.verifierErrors++
		return err
	}
	if !app.Trusted {
		return fmt.Errorf("host %s not trusted: %v", host, app.Findings)
	}
	return nil
}

// enroll runs steps 3–5 for one slot and returns the credential serial.
func (f *fleet) enroll(t *tally, s *slot) (string, error) {
	id := t.rec.begin("verifier.enroll_vnf")
	enr, err := f.d.VM.EnrollVNF(s.host, s.v.Name())
	t.rec.end(id)
	t.enrolls++
	if err != nil {
		t.verifierErrors++
		return "", err
	}
	return enr.Serial, nil
}

// attestAndEnroll runs steps 1–5 for one slot.
func (f *fleet) attestAndEnroll(t *tally, s *slot) (string, error) {
	if err := f.attest(t, s.host); err != nil {
		return "", err
	}
	return f.enroll(t, s)
}

func (f *fleet) revoke(t *tally, s *slot) error {
	id := t.rec.begin("verifier.revoke_vnf")
	err := f.d.VM.RevokeVNF(s.v.Name())
	t.rec.end(id)
	if err != nil {
		t.verifierErrors++
	}
	return err
}

// checkCredential checks that an onboarded credential's issuance proof
// verifies against the CA key.
func (f *fleet) checkCredential(t *tally, serial string) error {
	t.checks++
	pb, err := f.d.VM.CredentialProof(serial)
	if err != nil {
		return fmt.Errorf("credential proof for %s: %w", serial, err)
	}
	if err := pb.Verify(f.caPub); err != nil {
		return fmt.Errorf("credential proof for %s: %w", serial, err)
	}
	if pb.Entry.Serial != serial {
		return fmt.Errorf("credential proof for %s covers serial %s", serial, pb.Entry.Serial)
	}
	return nil
}

// checkPushed checks that the controller lists every named flow as pushed
// by the VNF's certificate CN.
func (f *fleet) checkPushed(t *tally, cn string, specs ...controller.FlowSpec) error {
	t.checks++
	listed := make(map[string]string)
	for _, s := range f.d.Ctrl.FlowsOn(f.env.Switch) {
		listed[s.Name] = s.PushedBy
	}
	for _, s := range specs {
		if by, ok := listed[s.Name]; !ok || by != cn {
			return fmt.Errorf("flow %s listed=%v pushed_by=%q, want %q", s.Name, ok, by, cn)
		}
	}
	return nil
}

// checkLogGrowth checks that the log grew by exactly five entries per
// completed onboarding over the phase.
func (f *fleet) checkLogGrowth(p *phase, size0 uint64) {
	p.checks++
	if err := f.d.VM.FlushLog(); err != nil {
		p.fail(err)
		return
	}
	grown := f.d.VM.TransparencyLog().Size() - size0
	if want := uint64(entriesPerOnboarding * p.onboardings); grown != want {
		p.fail(fmt.Errorf("log grew by %d entries over %d onboardings, want %d", grown, p.onboardings, want))
	}
}

// measure runs one window of the workload's loop with one tally per load
// goroutine, and brackets it with counter readings.
func (f *fleet) measure(dur time.Duration, ts []*tally, loop func(i int, t *tally, deadline time.Time)) *phase {
	p := &phase{}
	if err := f.d.VM.FlushLog(); err != nil {
		p.fail(err)
	}
	size0 := f.d.VM.TransparencyLog().Size()
	before := read(f.d.Model, f.d.IAS)
	p.start = before.at
	deadline := p.start.Add(dur)
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(i, t, deadline)
			t.end = time.Now()
		}()
	}
	wg.Wait()
	p.merge(ts)
	f.checkLogGrowth(p, size0)
	p.rd = delta{before, read(f.d.Model, f.d.IAS)}
	return p
}

// ---- onboard, onboard-cpu ----

func setupOnboard(f *fleet, rng *rand.Rand) error {
	f.slots = make([][]*slot, len(f.d.Hosts))
	for h := range f.d.Hosts {
		for j := 0; j < slotsPerClient; j++ {
			s, err := f.deploy(h, fmt.Sprintf("fw-%d-%d", h, j), rng)
			if err != nil {
				return err
			}
			f.slots[h] = append(f.slots[h], s)
		}
		// The seed fixes the order in which each client cycles its slots.
		rng.Shuffle(slotsPerClient, func(a, b int) {
			f.slots[h][a], f.slots[h][b] = f.slots[h][b], f.slots[h][a]
		})
	}
	if err := f.d.LearnGolden(); err != nil {
		return err
	}
	// Warm-up: one onboarding per client.
	p := f.runOnboard(0, nil)
	if p.failed > 0 {
		return fmt.Errorf("warm-up onboarding: %s", strings.Join(p.errs, "; "))
	}
	f.stagger = newDist(p.opLat).pct(0.5) / time.Duration(len(f.slots))
	return nil
}

// runOnboard runs the closed loop: each of two clients onboards the next
// slot of its own host, then deactivates and revokes it. A zero duration
// runs one onboarding per client.
func (f *fleet) runOnboard(dur time.Duration, recs []*recorder) *phase {
	ts := make([]*tally, len(f.slots))
	for i := range ts {
		ts[i] = &tally{}
		if recs != nil {
			ts[i].rec = recs[i]
		}
	}
	return f.measure(dur, ts, func(c int, t *tally, deadline time.Time) {
		time.Sleep(time.Duration(c) * f.stagger)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			t.attempted++
			if err := f.onboard(t, f.slots[c][n%slotsPerClient]); err != nil {
				t.fail(err)
			}
		}
	})
}

// onboard is one Figure-1 onboarding (steps 1–6), its checks, and the
// deactivation and revocation that free the slot again.
func (f *fleet) onboard(t *tally, s *slot) (err error) {
	t.rec.newOp()
	start := time.Now()
	serial, err := f.attestAndEnroll(t, s)
	if err != nil {
		return err
	}
	var inst *vnf.Instance
	defer func() {
		if err != nil {
			// Leave the slot free for its next turn.
			if inst != nil {
				_ = inst.Deactivate()
			}
			_ = f.d.VM.RevokeVNF(s.v.Name())
		}
	}()
	id := t.rec.begin("vnf.connect_activate")
	cstart := time.Now()
	inst, err = f.connect(s)
	if err == nil {
		err = inst.Activate()
	}
	now := time.Now()
	t.rec.end(id)
	if err != nil {
		return err
	}
	lat, conn := now.Sub(start), now.Sub(cstart)
	if err := f.checkCredential(t, serial); err != nil {
		return err
	}
	if err := f.checkPushed(t, s.v.Name(), s.v.Flows(f.env)...); err != nil {
		return err
	}
	id = t.rec.begin("vnf.deactivate")
	err = inst.Deactivate()
	t.rec.end(id)
	if err != nil {
		return err
	}
	rstart := time.Now()
	if err := f.revoke(t, s); err != nil {
		return err
	}
	t.revoke = append(t.revoke, time.Since(rstart))
	t.opLat = append(t.opLat, lat)
	t.connect = append(t.connect, conn)
	t.onboardings++
	t.ops++
	t.done = append(t.done, time.Now())
	return nil
}

// ---- northbound ----

func setupNorthbound(f *fleet, rng *rand.Rand) error {
	for j := 0; j < nbPoolSize; j++ {
		s, err := f.deploy(0, fmt.Sprintf("nb-%d", j), rng)
		if err != nil {
			return err
		}
		f.pool = append(f.pool, s)
	}
	// The seed fixes the order in which the REST client visits the pool.
	rng.Shuffle(nbPoolSize, func(a, b int) { f.pool[a], f.pool[b] = f.pool[b], f.pool[a] })
	var err error
	if f.churn, err = f.deploy(1, "churn", rng); err != nil {
		return err
	}
	if err := f.d.LearnGolden(); err != nil {
		return err
	}
	t := &tally{}
	for h := range f.d.Hosts {
		if err := f.attest(t, f.d.HostName(h)); err != nil {
			return err
		}
	}
	// Two goroutines enroll and connect the nine VNFs.
	all := append([]*slot{f.churn}, f.pool...)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gt := &tally{}
			for i := g; i < len(all) && errs[g] == nil; i += len(errs) {
				s := all[i]
				if _, errs[g] = f.enroll(gt, s); errs[g] == nil {
					s.inst, errs[g] = f.connect(s)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The churn VNF holds a live keep-alive connection into every cycle.
	if err := f.churn.inst.Activate(); err != nil {
		return err
	}
	if err := f.appendHistory(rng); err != nil {
		return err
	}
	// Warm-up: one block per pool VNF and one churn cycle.
	for _, s := range f.pool {
		f.block(t, s)
	}
	t.attempted++
	if err := f.churnCycle(t, time.Now()); err != nil {
		t.fail(err)
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", strings.Join(t.errs, "; "))
	}
	return nil
}

// appendHistory puts a seeded synthetic attestation history behind the
// pool's issuance entries, so every credential check folds its proof
// through a deep tree, and waits until the log has published the full
// tiles it completes. The history is one batch: one commit starts one
// background tile publisher, and the wait can tell when it is done.
func (f *fleet) appendHistory(rng *rand.Rand) error {
	log := f.d.VM.TransparencyLog()
	published := func() float64 { return obsValue(obs.Default().Snapshot(), "translog_tile_published_total") }
	want := published() + float64(fullTiles(log.Size()+historySize))
	batch := make([]translog.Entry, historySize)
	for i := range batch {
		host := "host-" + strconv.Itoa(rng.IntN(4096))
		batch[i] = translog.Entry{
			Type: translog.EntryAttestOK, Timestamp: 1_700_000_000_000 + int64(i),
			Actor: host, Host: host, Detail: "OK",
		}
		if rng.IntN(100) == 0 {
			batch[i].Type, batch[i].Detail = translog.EntryAttestFail, "IMA: unexpected measurement"
		}
	}
	if _, err := log.AppendBatch(batch); err != nil {
		return fmt.Errorf("appending history: %w", err)
	}
	for deadline := time.Now().Add(time.Minute); published() < want; {
		if time.Now().After(deadline) {
			return errors.New("log did not publish the history's tiles within a minute")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// fullTiles counts the full tiles, at every level, of a tree of size n.
func fullTiles(n uint64) uint64 {
	var c uint64
	for w := uint64(translog.TileWidth); n/w > 0; w *= translog.TileWidth {
		c += n / w
	}
	return c
}

// runNorthbound runs the REST client's closed loop beside the churn
// client's open loop.
func (f *fleet) runNorthbound(dur time.Duration, recs []*recorder) *phase {
	ts := []*tally{{}, {}}
	if recs != nil {
		ts[0].rec, ts[1].rec = recs[0], recs[1]
	}
	return f.measure(dur, ts, func(c int, t *tally, deadline time.Time) {
		if c == 0 {
			for n := 0; time.Now().Before(deadline); n++ {
				f.block(t, f.pool[n%nbPoolSize])
			}
			return
		}
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * churnPeriod)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			t.late = append(t.late, time.Since(due))
			t.attempted++
			if err := f.churnCycle(t, due); err != nil {
				t.fail(err)
			}
		}
	})
}

// block serves one VNF: its first request opens a fresh enclave-TLS
// connection, the other requests reuse it, alternating a push and a
// delete of the VNF's one flow.
func (f *fleet) block(t *tally, s *slot) {
	t.rec.newOp()
	defer t.rec.end(t.rec.begin("nb.block"))
	t.blocks++
	cl := s.inst.Client()
	for j := 0; j < nbBlock; j++ {
		t.attempted++
		name := "controller.push_flow"
		if j == 0 {
			name = "vnf.connect"
		} else if j%2 == 1 {
			name = "controller.delete_flow"
		}
		id := t.rec.begin(name)
		start := time.Now()
		var err error
		if j%2 == 0 {
			err = cl.PushFlow(s.flow)
		} else {
			err = cl.DeleteFlow(s.flow.Name)
		}
		d := time.Since(start)
		t.rec.end(id)
		if err == nil && j == 0 {
			err = f.checkPushed(t, s.v.Name(), s.flow)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.ops++
		t.done = append(t.done, time.Now())
		if j == 0 {
			t.connect = append(t.connect, d)
		} else {
			t.opLat = append(t.opLat, d)
		}
	}
	cl.CloseIdle()
}

// churnCycle revokes the churn VNF, checks that the controller refuses
// it on its live connection and on a fresh handshake, then onboards it
// again. Its revocation latency counts from the cycle's due time.
func (f *fleet) churnCycle(t *tally, due time.Time) error {
	s := f.churn
	t.rec.newOp()
	if err := f.revoke(t, s); err != nil {
		return err
	}
	t.revoke = append(t.revoke, time.Since(due))
	t.checks++
	err := s.inst.Client().DeleteFlow(s.flow.Name)
	s.inst.Client().CloseIdle()
	if err == nil || !strings.Contains(err.Error(), "status 403") {
		return fmt.Errorf("revoked VNF's live connection: got %v, want status 403", err)
	}
	t.checks++
	fresh, err := f.connect(s)
	if err == nil {
		err = fresh.Client().PushFlow(s.flow)
		fresh.Client().CloseIdle()
		if err == nil {
			return errors.New("revoked VNF accepted on a fresh handshake")
		}
	}
	serial, err := f.attestAndEnroll(t, s)
	if err != nil {
		return err
	}
	id := t.rec.begin("vnf.connect_activate")
	s.inst, err = f.connect(s)
	if err == nil {
		err = s.inst.Activate()
	}
	t.rec.end(id)
	if err != nil {
		return err
	}
	if err := f.checkCredential(t, serial); err != nil {
		return err
	}
	if err := f.checkPushed(t, s.v.Name(), s.v.Flows(f.env)...); err != nil {
		return err
	}
	t.onboardings++
	return nil
}

// workload is one traffic mix: its cost model, its set-up and its loop.
type workload struct {
	name  string
	costs func() *simtime.CostModel
	setup func(*fleet, *rand.Rand) error
	run   func(f *fleet, dur time.Duration, recs []*recorder) *phase
}

var workloads = map[string]*workload{
	"onboard":     {name: "onboard", costs: simtime.DefaultCosts, setup: setupOnboard, run: (*fleet).runOnboard},
	"onboard-cpu": {name: "onboard-cpu", costs: simtime.ZeroCosts, setup: setupOnboard, run: (*fleet).runOnboard},
	"northbound":  {name: "northbound", costs: simtime.DefaultCosts, setup: setupNorthbound, run: (*fleet).runNorthbound},
}
