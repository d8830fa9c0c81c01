package controller

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// Floodlight-style REST paths.
const (
	PathSummary    = "/wm/core/controller/summary/json"
	PathHealth     = "/wm/core/health/json"
	PathLinks      = "/wm/topology/links/json"
	PathDevices    = "/wm/device/"
	PathStaticFlow = "/wm/staticflowpusher/json"
	PathFlowList   = "/wm/staticflowpusher/list/"
)

// principalKey carries the authenticated client identity through request
// contexts in trusted-HTTPS mode.
type principalKey struct{}

// Principal returns the authenticated client CN, or "" for unauthenticated
// modes.
func Principal(r *http.Request) string {
	if v, ok := r.Context().Value(principalKey{}).(string); ok {
		return v
	}
	return ""
}

// withPrincipal attaches the client certificate CN when present.
func withPrincipal(r *http.Request) *http.Request {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		cn := r.TLS.PeerCertificates[0].Subject.CommonName
		return r.WithContext(context.WithValue(r.Context(), principalKey{}, cn))
	}
	return r
}

// Handler returns the controller's north-bound REST interface.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathSummary, c.handleSummary)
	mux.HandleFunc("GET "+PathHealth, c.handleHealth)
	mux.HandleFunc("GET "+PathLinks, c.handleLinks)
	mux.HandleFunc("GET "+PathDevices, c.handleDevices)
	mux.HandleFunc("POST "+PathStaticFlow, c.handlePushFlow)
	mux.HandleFunc("DELETE "+PathStaticFlow, c.handleDeleteFlow)
	mux.HandleFunc("GET "+PathFlowList+"{dpid}/json", c.handleFlowList)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.countRequest()
		mux.ServeHTTP(w, withPrincipal(r))
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Controller) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Summary())
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]bool{"healthy": true})
}

func (c *Controller) handleLinks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.network.Links())
}

func (c *Controller) handleDevices(w http.ResponseWriter, r *http.Request) {
	type device struct {
		Host string `json:"host"`
	}
	hosts := c.network.Hosts()
	out := make([]device, len(hosts))
	for i, h := range hosts {
		out[i] = device{Host: h}
	}
	writeJSON(w, out)
}

func (c *Controller) handlePushFlow(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	var spec FlowSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		http.Error(w, "malformed flow entry", http.StatusBadRequest)
		return
	}
	spec.PushedBy = Principal(r)
	if err := c.PushFlow(spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"status": "Entry pushed"})
}

func (c *Controller) handleDeleteFlow(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		http.Error(w, "malformed delete request", http.StatusBadRequest)
		return
	}
	if err := c.DeleteFlow(req.Name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, map[string]string{"status": "Entry " + req.Name + " deleted"})
}

func (c *Controller) handleFlowList(w http.ResponseWriter, r *http.Request) {
	dpid := r.PathValue("dpid")
	flows := c.FlowsOn(dpid)
	out := make(map[string]FlowSpec, len(flows))
	for _, f := range flows {
		out[f.Name] = f
	}
	writeJSON(w, map[string]map[string]FlowSpec{dpid: out})
}
