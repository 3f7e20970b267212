package obsrv

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestPolicyEndpoint(t *testing.T) {
	s := New(Options{Docs: map[string]func() any{"/policy": func() any {
		return map[string]any{"enabled": true, "current_arm": 2, "switches": 3}
	}}})
	rec, body := get(t, s.Handler(), "/policy")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var doc struct {
		Enabled    bool `json:"enabled"`
		CurrentArm int  `json:"current_arm"`
		Switches   int  `json:"switches"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	if !doc.Enabled || doc.CurrentArm != 2 || doc.Switches != 3 {
		t.Errorf("doc = %+v", doc)
	}
}

func TestPolicyEndpointMissingSourceIs404(t *testing.T) {
	if rec, _ := get(t, New(Options{}).Handler(), "/policy"); rec.Code != http.StatusNotFound {
		t.Errorf("/policy without a controller: status = %d, want 404", rec.Code)
	}
}
