package main

import (
	"slices"
	"time"

	"vnfguard/internal/simtime"
)

// endToEnd returns the metrics a user of the system sees. Every workload
// reports the same names: ops_per_s is completed onboardings per second on
// the onboard workloads and REST-client requests per second on northbound;
// op_* is onboarding latency (start of AttestHost to return of Activate)
// or keep-alive request latency. The report lines give each reading under
// its workload's own name with its sample count, and also the connect
// latencies (vnf.NewInstance + Activate during an onboarding, or the
// first request of a northbound block, handshake included), the p99s and
// the revocation latencies. These vary too much between runs on a shared
// two-core machine to bound a regression with: on onboard, a connect's
// modeled enclave transitions are realised by sleeps, so it waits on an
// idle machine's timer wake-ups.
func endToEnd(r *result, w *workload, p *phase, setup time.Duration) map[string]metric {
	lat, conn, rev := newDist(p.opLat), newDist(p.connect), newDist(p.revoke)
	rate, windows := p.rate()
	m := map[string]metric{
		"setup_s":   {setup.Seconds(), "s"},
		"ops_per_s": {rate, "1/s"},
		"op_p50_ms": {ms(lat.pct(0.5)), "ms"},
		"op_p90_ms": {ms(lat.pct(0.9)), "ms"},
	}

	r.say("setup_s %.4f (median of the run's set-ups)", setup.Seconds())
	pct := func(name string, d dist, q float64, unit time.Duration) {
		r.say("%s %.4f (n=%d)", name, float64(d.pct(q))/float64(unit), len(d))
		if !d.enough(q) {
			r.say("WARNING: %s has fewer than 10 samples beyond it", name)
		}
	}
	if w.name == "northbound" {
		r.say("nb_req_per_s %.4f (median of %d windows, %d requests)", rate, windows, p.ops)
		pct("nb_req_p50_us", lat, 0.5, time.Microsecond)
		pct("nb_req_p90_us", lat, 0.9, time.Microsecond)
		pct("nb_req_p99_us", lat, 0.99, time.Microsecond)
		pct("nb_connect_p50_ms", conn, 0.5, time.Millisecond)
		pct("nb_connect_p90_ms", conn, 0.9, time.Millisecond)
		pct("nb_connect_p99_ms", conn, 0.99, time.Millisecond)
		pct("churn_revoke_p50_ms", rev, 0.5, time.Millisecond)
	} else {
		r.say("onboard_per_s %.4f (median of %d windows, %d onboardings)", rate, windows, p.onboardings)
		pct("onboard_p50_ms", lat, 0.5, time.Millisecond)
		pct("onboard_p90_ms", lat, 0.9, time.Millisecond)
		pct("connect_activate_p50_ms", conn, 0.5, time.Millisecond)
		pct("connect_activate_p90_ms", conn, 0.9, time.Millisecond)
		pct("revoke_p50_ms", rev, 0.5, time.Millisecond)
	}
	return m
}

// perLayer returns the per-layer metrics. Counts and modeled cost come
// from the traced phase's counter deltas, process cost from the untraced
// phase, and span timings from the traced phase. Modeled hardware time is
// in sim_ms, apart from measured time in ms.
func perLayer(r *result, f *fleet, w *workload, p0, p1 *phase, spans *spanSet) map[string]metric {
	m := make(map[string]metric)
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	d := p1.rd
	onb := float64(p1.onboardings)
	model := f.d.Model

	iasRT := d.simCount(simtime.OpIASRoundTrip)
	reports := float64(d.b.reports - d.a.reports)
	add("ias.round_trips_per_onboard", ratio(iasRT, onb), "count")
	add("ias.reports_per_onboard", ratio(reports, onb), "count")
	add("ias.sigrl_fetches_per_onboard", ratio(iasRT-reports, onb), "count")
	add("ias.modeled_ms_per_onboard", ratio(ms(d.simTotal(simtime.OpIASRoundTrip)), onb), "sim_ms")

	// The cost model's transition counters are shared by every enclave, so
	// a span's count includes whatever the other client did meanwhile. The
	// REST client's own transitions per block are fixed, so the median
	// block count times the blocks run is its share of the phase total;
	// the rest belongs to the onboardings.
	blockE, blockO := spans.transitionsP50("nb.block")
	ecalls := d.simCount(simtime.OpECall) - blockE*float64(p1.blocks)
	ocalls := d.simCount(simtime.OpOCall) - blockO*float64(p1.blocks)
	var sgxModeled time.Duration
	for _, op := range []simtime.Op{simtime.OpEReport, simtime.OpQuote, simtime.OpSeal, simtime.OpUnseal,
		simtime.OpPageIn, simtime.OpCounterRead, simtime.OpCounterBump} {
		sgxModeled += d.simTotal(op)
	}
	sgxMS := ms(sgxModeled) + ecalls*ms(model.Cost(simtime.OpECall)) + ocalls*ms(model.Cost(simtime.OpOCall))
	reqE, _ := spans.transitionsP50("controller.push_flow", "controller.delete_flow")
	conE, _ := spans.transitionsP50("vnf.connect")
	add("sgx.quotes_per_onboard", ratio(d.simCount(simtime.OpQuote), onb), "count")
	add("sgx.modeled_ms_per_onboard", ratio(sgxMS, onb), "sim_ms")
	add("sgx.ecalls_per_onboard", ratio(ecalls, onb), "count")
	add("sgx.ocalls_per_onboard", ratio(ocalls, onb), "count")
	add("sgx.ecalls_per_request", reqE, "count")
	add("sgx.ecalls_per_connect", conE, "count")

	hostSpans := []string{"host.attest", "host.ra_msg1", "host.ra_msg2", "host.ra_msg4", "host.frame"}
	for _, n := range hostSpans {
		add(n+"_ms", ms(spans.p50(n)), "ms")
	}
	add("host.busy_ms_per_onboard", ratio(ms(spans.sum(hostSpans...)), onb), "ms")

	add("verifier.attest_host_ms", ms(spans.p50("verifier.attest_host")), "ms")
	add("verifier.enroll_vnf_ms", ms(spans.p50("verifier.enroll_vnf")), "ms")
	add("verifier.revoke_vnf_ms", ms(spans.p50("verifier.revoke_vnf")), "ms")
	self := spans.selfP50("verifier.enroll_vnf")
	add("verifier.enroll_self_ms", ms(self), "ms")
	// AttestHost verifies exactly one quote with IAS; every other round
	// trip of the phase belongs to an EnrollVNF.
	iasPerEnroll := ratio(iasRT-float64(p1.attests), float64(p1.enrolls))
	add("verifier.enroll_real_ms", ms(self)-iasPerEnroll*ms(model.Cost(simtime.OpIASRoundTrip)), "ms")
	add("verifier.errors", float64(p1.verifierErrors), "count")

	entries := d.counter("translog_appended_entries_total")
	hits, misses := d.counter("translog_tile_cache_hits_total"), d.counter("translog_tile_cache_misses_total")
	ops := float64(p1.ops)
	add("translog.entries_per_onboard", ratio(entries, onb), "count")
	add("translog.commits_per_op", ratio(d.counter("translog_commits_total"), ops), "count")
	add("translog.fsyncs_per_op", ratio(d.counter("translog_wal_fsyncs_total"), ops), "count")
	add("translog.wal_bytes_per_entry", ratio(d.counter("translog_wal_written_bytes_total"), entries), "bytes")
	for _, ph := range []string{"merkle", "sign", "wal_sync", "anchor_commit"} {
		add("translog.phase_"+ph+"_ms", d.meanPhaseMS(ph), "ms")
	}
	// Full-tile reads of the statedir tile cache; the credential checker's
	// own expanded-tile cache absorbs most reads, so the count may be 0.
	add("translog.tile_reads", hits+misses, "count")
	add("translog.tile_cache_hit_ratio", ratio(hits, hits+misses), "ratio")

	add("vnf.connect_activate_ms", ms(spans.p50("vnf.connect_activate")), "ms")

	d0 := p0.rd
	ops0 := float64(p0.ops)
	add("process.cpu_ms_per_op", ratio(ms(d0.b.cpu-d0.a.cpu), ops0), "ms")
	add("process.allocs_per_op", ratio(float64(d0.b.allocs-d0.a.allocs), ops0), "count")
	add("process.heap_mb", float64(d0.b.heapLive)/(1<<20), "MB")

	late := newDist(append(slices.Clone(p0.late), p1.late...))
	behind := 0
	for _, l := range late {
		if l > churnPeriod {
			behind++
		}
	}
	add("loadgen.churn_behind", float64(behind), "count")
	if behind > 0 {
		r.say("FLAG: the churn generator fell behind by more than one period in %d cycle(s)", behind)
	}

	// Tracing overhead: the traced phase's rate minus the untraced one's.
	r0, _ := p0.rate()
	r1, _ := p1.rate()
	onbOverhead, reqOverhead := 0.0, r1-r0
	if w.name != "northbound" {
		onbOverhead, reqOverhead = r1-r0, 0
	}
	add("trace.overhead_onboard_per_s", onbOverhead, "1/s")
	add("trace.overhead_nb_req_per_s", reqOverhead, "1/s")

	attempted, failed := p0.attempted+p1.attempted, p0.failed+p1.failed
	add("fail_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	add("checks", float64(p0.checks+p1.checks), "count")

	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		r.say("%-36s %.6g %s", n, m[n].Value, m[n].Unit)
	}
	// Northbound's connects and churn cycles have no counterpart on the
	// onboard workloads, so these two timings are report lines only: as
	// metrics they would read a constant 0 ms there.
	r.say("%-36s %.6g ms (n=%d)", "vnf.connect_ms", ms(spans.p50("vnf.connect")), len(spans.byName["vnf.connect"]))
	r.say("%-36s %.6g ms (n=%d)", "loadgen.churn_late_ms", ms(late.pct(1)), len(late))
	return m
}
