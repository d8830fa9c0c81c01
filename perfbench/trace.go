package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ra"
	"vnfguard/internal/simtime"
	"vnfguard/internal/verifier"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation (an onboarding, a churn cycle, a
// block of REST requests) share Op.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`   // index in the same recorder, -1 for a root
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	// ECalls and OCalls are the enclave transitions charged to the shared
	// cost model while the span was open, by any goroutine.
	ECalls int64 `json:"ecalls"`
	OCalls int64 `json:"ocalls"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps one load goroutine's spans in memory. It is owned by that
// goroutine: the Verification Manager calls a host's timedHost on the
// goroutine that called the Manager, and each host is driven by one
// client only. A nil recorder (the untraced run) records nothing.
type recorder struct {
	model  *simtime.CostModel
	origin time.Time
	client int64
	seq    int64
	op     int64
	spans  []span
	stack  []int32
}

// newOp starts a new operation; later spans carry its id.
func (r *recorder) newOp() {
	if r == nil {
		return
	}
	r.seq++
	r.op = r.client<<32 | r.seq
}

func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Op: r.op, Parent: parent,
		Start:  int64(time.Since(r.origin)),
		ECalls: -r.model.Count(simtime.OpECall),
		OCalls: -r.model.Count(simtime.OpOCall),
	})
	id := int32(len(r.spans) - 1)
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.origin))
	s.ECalls += r.model.Count(simtime.OpECall)
	s.OCalls += r.model.Count(simtime.OpOCall)
	r.stack = r.stack[:len(r.stack)-1]
}

// timedHost wraps a host's verifier.HostConn so the traced run times each
// host-side step of the Verification Manager's calls. It is installed with
// Manager.RegisterHost; Manager.SetTracer is not used because its callback
// field is unsynchronised and two clients call the Manager at once.
type timedHost struct {
	verifier.HostConn
	rec *recorder
}

func (h timedHost) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	defer h.rec.end(h.rec.begin("host.attest"))
	return h.HostConn.Attest(nonce, useTPM)
}

func (h timedHost) VNFRAMsg1(vnf string) (*ra.Msg1, error) {
	defer h.rec.end(h.rec.begin("host.ra_msg1"))
	return h.HostConn.VNFRAMsg1(vnf)
}

func (h timedHost) VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error) {
	defer h.rec.end(h.rec.begin("host.ra_msg2"))
	return h.HostConn.VNFRAMsg2(vnf, m2)
}

func (h timedHost) VNFRAMsg4(vnf string, m4 *ra.Msg4) error {
	defer h.rec.end(h.rec.begin("host.ra_msg4"))
	return h.HostConn.VNFRAMsg4(vnf, m4)
}

func (h timedHost) VNFFrame(vnf string, frame []byte) ([]byte, error) {
	defer h.rec.end(h.rec.begin("host.frame"))
	return h.HostConn.VNFFrame(vnf, frame)
}

// spanSet indexes the spans of every recorder of a traced phase.
type spanSet struct {
	recs   []*recorder
	byName map[string][]span
}

func newSpanSet(recs []*recorder) *spanSet {
	s := &spanSet{recs: recs, byName: make(map[string][]span)}
	for _, r := range recs {
		for _, sp := range r.spans {
			s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		}
	}
	return s
}

// p50 is the median duration of the named spans.
func (s *spanSet) p50(name string) time.Duration {
	var ds []time.Duration
	for _, sp := range s.byName[name] {
		ds = append(ds, sp.dur())
	}
	return newDist(ds).pct(0.5)
}

// sum is the total duration of the named spans.
func (s *spanSet) sum(names ...string) time.Duration {
	var t time.Duration
	for _, n := range names {
		for _, sp := range s.byName[n] {
			t += sp.dur()
		}
	}
	return t
}

// selfP50 is the median self time of the named spans: each span's
// duration minus the part its child spans cover. Children of one span
// run sequentially on its goroutine, so their durations add up.
func (s *spanSet) selfP50(name string) time.Duration {
	var self []time.Duration
	for _, r := range s.recs {
		child := make(map[int32]time.Duration)
		for _, sp := range r.spans {
			if sp.Parent >= 0 {
				child[sp.Parent] += sp.dur()
			}
		}
		for i, sp := range r.spans {
			if sp.Name == name {
				self = append(self, sp.dur()-child[int32(i)])
			}
		}
	}
	return newDist(self).pct(0.5)
}

// transitionsP50 is the median number of ECALLs and of OCALLs charged
// while the named spans were open.
func (s *spanSet) transitionsP50(names ...string) (ecalls, ocalls float64) {
	var e, o []int64
	for _, n := range names {
		for _, sp := range s.byName[n] {
			e = append(e, sp.ECalls)
			o = append(o, sp.OCalls)
		}
	}
	return median(e), median(o)
}

// write stores every span as one JSON object per line.
func (s *spanSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range s.recs {
		for _, sp := range r.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
