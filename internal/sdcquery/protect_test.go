package sdcquery

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
)

const testOwnerToken = "test-owner-token"

// newOwnerHTTP builds a test server whose /protect endpoint is enabled with
// testOwnerToken, serving d.
func newOwnerHTTP(t *testing.T, d *dataset.Dataset) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := NewServer(d, Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(NewHandler(srv, HandlerConfig{OwnerToken: testOwnerToken}))
	t.Cleanup(h.Close)
	return h, srv
}

func postProtect(t *testing.T, url, token, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/protect", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestProtectEndpoint(t *testing.T) {
	h, srv := newOwnerHTTP(t, dataset.Dataset2())
	resp, body := postProtect(t, h.URL, testOwnerToken, `{"method":"mdav","seed":7,"params":{"k":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	var pr ProtectResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Report.Method != "mdav" || pr.Report.Seed != 7 || pr.Report.Rows != srv.Rows() {
		t.Errorf("report = %+v", pr.Report)
	}
	if !pr.Report.InfoLossValid {
		t.Error("mdav report missing information loss")
	}
	lines := strings.Split(strings.TrimSpace(pr.CSV), "\n")
	if len(lines) != srv.Rows()+1 {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), srv.Rows())
	}

	// The same request must yield the same bytes: the seed pins the release.
	_, again := postProtect(t, h.URL, testOwnerToken, `{"method":"mdav","seed":7,"params":{"k":2}}`)
	if string(body) != string(again) {
		t.Error("identical protect requests produced different releases")
	}
}

// TestProtectRequiresOwnerToken pins the authorization gate: /protect hands
// out record-level microdata, so without the owner's bearer token it must
// refuse — and when the server is built without a token at all, the
// endpoint is disabled outright for every caller.
func TestProtectRequiresOwnerToken(t *testing.T) {
	h, _ := newOwnerHTTP(t, dataset.Dataset2())
	for _, tc := range []struct {
		name, token string
	}{
		{"missing token", ""},
		{"wrong token", "not-the-owner"},
	} {
		resp, body := postProtect(t, h.URL, tc.token, `{"method":"mdav","seed":7}`)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %s, want 401; body %s", tc.name, resp.Status, body)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("%s: missing WWW-Authenticate challenge", tc.name)
		}
		if strings.Contains(string(body), "csv") {
			t.Errorf("%s: unauthorized response leaked a release: %s", tc.name, body)
		}
	}

	// No token configured (the HandlerConfig default):
	// the endpoint is disabled even with a guessed credential.
	hOff, _ := newTestHTTP(t, NoProtection)
	resp, body := postProtect(t, hOff.URL, testOwnerToken, `{"method":"mdav","seed":7}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("tokenless server: status %s, want 403; body %s", resp.Status, body)
	}
}

// TestProtectStripsIdentifiers pins the release hygiene rule: identifier
// columns (which the masking methods never target) must not ship in the
// released CSV linked to the other attributes.
func TestProtectStripsIdentifiers(t *testing.T) {
	attrs := append([]dataset.Attribute{{Name: "name", Role: dataset.Identifier, Kind: dataset.Nominal}},
		dataset.TrialSchema()...)
	d := dataset.New(attrs...)
	d.MustAppend("alice", 160.0, 108.0, 146.0, "N")
	d.MustAppend("bob", 170.0, 70.0, 135.0, "Y")
	d.MustAppend("carol", 172.0, 74.0, 128.0, "N")

	h, _ := newOwnerHTTP(t, d)
	resp, body := postProtect(t, h.URL, testOwnerToken, `{"method":"mdav","seed":1,"params":{"k":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	var pr ProtectResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pr.CSV, "name") || strings.Contains(pr.CSV, "alice") {
		t.Errorf("release still carries the identifier column:\n%s", pr.CSV)
	}
	// Report column indices address the identifier-free released schema.
	for _, j := range pr.Report.Columns {
		if j >= len(dataset.TrialSchema()) {
			t.Errorf("report column %d out of range of the released schema", j)
		}
	}
}

func TestProtectEndpointErrors(t *testing.T) {
	h, _ := newOwnerHTTP(t, dataset.Dataset2())
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown method", `{"method":"zap","seed":1}`},
		{"unknown param", `{"method":"mdav","seed":1,"params":{"zap":1}}`},
		{"malformed JSON", `{"method":`},
	} {
		resp, body := postProtect(t, h.URL, testOwnerToken, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, body %s", tc.name, resp.Status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}
	resp, err := http.Get(h.URL + "/protect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /protect: status %s, Allow %q", resp.Status, resp.Header.Get("Allow"))
	}
}
