package metadata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// API is the protocol surface the compiler, optimizer, and job manager use
// (Figure 9). The in-process Service implements it directly; Client
// implements it over HTTP against a Handler-wrapped Service.
type API interface {
	TryRelevantViews(vc string, jobTags []string) ([]Annotation, error)
	Annotation(normSig string) (Annotation, bool)
	ProposeMaterialize(normSig, preciseSig, jobID string, now int64) bool
	ReportMaterialized(v ViewInfo)
	AbortMaterialize(preciseSig, jobID string)
	LookupView(preciseSig string) (ViewInfo, bool)
}

var _ API = (*Service)(nil)
var _ API = (*Client)(nil)

// Handler exposes a Service over HTTP with a JSON protocol. It is the
// deployment shape of the production metadata service (an RPC service in
// front of a consistent store).
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /relevant", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			VC   string
			Tags []string
		}
		if !decode(w, r, &req) {
			return
		}
		anns, err := s.TryRelevantViews(req.VC, req.Tags)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		reply(w, anns)
	})
	mux.HandleFunc("POST /annotation", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ NormSig string }
		if !decode(w, r, &req) {
			return
		}
		a, ok := s.Annotation(req.NormSig)
		reply(w, struct {
			OK  bool
			Ann Annotation
		}{ok, a})
	})
	mux.HandleFunc("POST /propose", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			NormSig, PreciseSig, JobID string
			Now                        int64
		}
		if !decode(w, r, &req) {
			return
		}
		ok := s.ProposeMaterialize(req.NormSig, req.PreciseSig, req.JobID, req.Now)
		reply(w, struct{ OK bool }{ok})
	})
	mux.HandleFunc("POST /report", func(w http.ResponseWriter, r *http.Request) {
		var v ViewInfo
		if !decode(w, r, &v) {
			return
		}
		s.ReportMaterialized(v)
		reply(w, struct{}{})
	})
	mux.HandleFunc("POST /abort", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ PreciseSig, JobID string }
		if !decode(w, r, &req) {
			return
		}
		s.AbortMaterialize(req.PreciseSig, req.JobID)
		reply(w, struct{}{})
	})
	mux.HandleFunc("POST /view", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ PreciseSig string }
		if !decode(w, r, &req) {
			return
		}
		v, ok := s.LookupView(req.PreciseSig)
		reply(w, struct {
			OK   bool
			View ViewInfo
		}{ok, v})
	})
	mux.HandleFunc("POST /load", func(w http.ResponseWriter, r *http.Request) {
		var anns []Annotation
		if !decode(w, r, &anns) {
			return
		}
		s.LoadAnalysis(anns)
		reply(w, struct{}{})
	})
	return mux
}

// maxRequestBytes bounds one request body (/load carries a whole
// analysis); anything larger is rejected rather than buffered.
const maxRequestBytes = 16 << 20

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client talks the Handler protocol. The per-job lookup returns its
// transport or status error, so the caller's circuit breaker sees a dead
// service; the coordination calls swallow errors into negative replies: a
// job that cannot reach the service runs without reuse, never fails (§4).
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("metadata: %s returned %s", path, r.Status)
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// TryRelevantViews implements API.
func (c *Client) TryRelevantViews(vc string, jobTags []string) ([]Annotation, error) {
	var out []Annotation
	req := struct {
		VC   string
		Tags []string
	}{vc, jobTags}
	if err := c.post("/relevant", req, &out); err != nil {
		return nil, fmt.Errorf("metadata: relevant-views lookup for %s: %w", vc, err)
	}
	return out, nil
}

// Annotation implements API.
func (c *Client) Annotation(normSig string) (Annotation, bool) {
	var resp struct {
		OK  bool
		Ann Annotation
	}
	if err := c.post("/annotation", struct{ NormSig string }{normSig}, &resp); err != nil {
		return Annotation{}, false
	}
	return resp.Ann, resp.OK
}

// ProposeMaterialize implements API.
func (c *Client) ProposeMaterialize(normSig, preciseSig, jobID string, now int64) bool {
	var resp struct{ OK bool }
	req := struct {
		NormSig, PreciseSig, JobID string
		Now                        int64
	}{normSig, preciseSig, jobID, now}
	if err := c.post("/propose", req, &resp); err != nil {
		return false
	}
	return resp.OK
}

// ReportMaterialized implements API.
func (c *Client) ReportMaterialized(v ViewInfo) {
	_ = c.post("/report", v, nil)
}

// AbortMaterialize implements API.
func (c *Client) AbortMaterialize(preciseSig, jobID string) {
	_ = c.post("/abort", struct{ PreciseSig, JobID string }{preciseSig, jobID}, nil)
}

// LookupView implements API.
func (c *Client) LookupView(preciseSig string) (ViewInfo, bool) {
	var resp struct {
		OK   bool
		View ViewInfo
	}
	if err := c.post("/view", struct{ PreciseSig string }{preciseSig}, &resp); err != nil {
		return ViewInfo{}, false
	}
	return resp.View, resp.OK
}

// LoadAnalysis pushes analyzer output to the remote service.
func (c *Client) LoadAnalysis(anns []Annotation) error {
	return c.post("/load", anns, nil)
}
