package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke makes a short traced run of every workload and checks that it
// emits every metric BENCHMARK.json names with its unit, that nothing
// failed, and that the seed counts of the Figure-1 pipeline hold exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up full deployments, one with a 10⁶-entry log")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	exact := map[string]float64{
		"ias.round_trips_per_onboard":   3,
		"ias.sigrl_fetches_per_onboard": 1,
		"sgx.quotes_per_onboard":        2,
		"translog.entries_per_onboard":  5,
		"fail_ratio":                    0,
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	// Every workload the command runs, onboard-cpu too, which BENCHMARK.json
	// leaves out.
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(config{workload: name, seed: 7, dur: 2 * time.Second, trace: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.checks == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d checks=%d\n%v",
					res.Correct, res.Failed, res.Attempted, res.checks, res.report)
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.endToEnd[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range sp.PerLayer {
				got, ok := res.perLayer[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for name, want := range exact {
				if got := res.perLayer[name].Value; got != want {
					t.Errorf("%s = %v, want exactly %v", name, got, want)
				}
			}
		})
	}
}
