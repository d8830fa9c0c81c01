// Command perfbench drives vnfguard's Figure-1 credential pipeline under
// concurrent load, checks its outputs, and prints its metrics by name.
// The last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of an untraced
// run, or with --trace 1 the per-layer metrics of a separate traced run.
//
//	bash perfbench/run.sh --workload onboard --seed 1 --seconds 45 --trace 0
//
// Workloads (BENCHMARK.json records why each of its own was chosen):
//
//   - onboard: two closed-loop clients under simtime.DefaultCosts, each
//     onboarding VNFs from a fixed pool of four slots on its own host:
//     AttestHost, EnrollVNF, vnf.NewInstance + Activate, then Deactivate
//     and RevokeVNF.
//   - onboard-cpu: the same loop under simtime.ZeroCosts. It saturates
//     both cores, so on a shared machine its figures move with the CPU
//     time neighbours take; BENCHMARK.json leaves it out and it is run by
//     hand.
//   - northbound: a closed-loop REST client over eight enrolled VNFs on
//     host 0, in blocks of 16 requests per fresh enclave-TLS connection,
//     beside an open-loop churn client that revokes and re-onboards one
//     VNF on host 1 once a second; the log holds 10⁶ synthetic entries.
//
// Every run drives core.NewDeployment with in-process hosts and IAS, the
// trusted-HTTPS controller with CA trust, full-session enclave TLS,
// VM-generated provisioning and a durable log under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupsPerRun is how many times an untraced run sets the deployment up;
// setup_s is the median.
const setupsPerRun = 3

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	dir      string // durable logs and span files go here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Its JSON form is the command's last line;
// endToEnd and perLayer hold the two metric sets and Metrics the one the
// run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	endToEnd, perLayer map[string]metric
	checks             int
	report             []string
}

func (r *result) say(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "onboard, onboard-cpu or northbound")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: VNF slot order, flow specs and synthetic history")
	flag.IntVar(&secs, "seconds", 45, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a separate traced run")
	flag.Parse()
	if secs < 2 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 2 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.dur = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	cfg.dir = ".bench_build"
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up and measures it. Untraced, it sets up
// setupsPerRun times and measures for cfg.dur. Traced, it sets up once and
// measures an untraced and then a traced phase of half cfg.dur each, so
// that their difference is the tracing overhead.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	n, dur := setupsPerRun, cfg.dur
	if cfg.trace {
		n, dur = 1, cfg.dur/2
	}
	var f *fleet
	var setups []time.Duration
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if f, err = newFleet(w, cfg.seed, cfg.dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer f.close()

	res := &result{}
	res.say("workload %s seed %d: %v measured, %d set-up(s)", w.name, cfg.seed, cfg.dur, n)
	// Every run starts measuring from a collected heap, so that the
	// set-up's garbage (northbound's history batch) does not decide when
	// the first collections fall.
	runtime.GC()
	p0 := w.run(f, dur, nil)
	res.endToEnd = endToEnd(res, w, p0, newDist(setups).pct(0.5))
	res.Metrics = res.endToEnd
	phases := []*phase{p0}
	if cfg.trace {
		// The traced phase: each client's recorder also times its host's
		// side of the Verification Manager's calls.
		recs := make([]*recorder, len(f.d.Hosts))
		origin := time.Now()
		for i, h := range f.d.Hosts {
			recs[i] = &recorder{model: f.d.Model, origin: origin, client: int64(i)}
			f.d.VM.RegisterHost(f.d.HostName(i), timedHost{h, recs[i]}, nil)
		}
		p1 := w.run(f, dur, recs)
		phases = append(phases, p1)
		spans := newSpanSet(recs)
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.dir, w.name, cfg.seed)
		if err := spans.write(path); err != nil {
			return nil, err
		}
		res.say("spans written to %s", path)
		res.perLayer = perLayer(res, f, w, p0, p1, spans)
		res.Metrics = res.perLayer
	}
	res.finish(phases...)
	return res, nil
}

// finish sums the phases' operation counts and reports failures.
func (r *result) finish(ps ...*phase) {
	for _, p := range ps {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.checks += p.checks
		for _, e := range p.errs {
			r.say("FAILED: %s", e)
		}
	}
	r.Correct = r.Failed == 0
	r.say("fail_ratio %.6g (%d failed of %d attempted; %d checks ran)",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted, r.checks)
}
