package sdcquery

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/obs"
)

func newTestHTTP(t *testing.T, prot Protection) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: prot})
	if err != nil {
		t.Fatal(err)
	}
	h := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	t.Cleanup(h.Close)
	return h, srv
}

func postJSON(t *testing.T, url string, body string) AnswerJSON {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var a AnswerJSON
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestHTTPQueryEndpoint(t *testing.T) {
	h, _ := newTestHTTP(t, NoProtection)
	a := postJSON(t, h.URL+"/query", `{
		"agg": "AVG", "attr": "blood_pressure",
		"where": [
			{"col": "height", "op": "<", "v": 165},
			{"col": "weight", "op": ">", "v": 105}
		]}`)
	if a.Denied || a.Value != 146 {
		t.Errorf("answer = %+v, want 146", a)
	}
}

func TestHTTPSQLEndpoint(t *testing.T) {
	h, _ := newTestHTTP(t, NoProtection)
	a := postJSON(t, h.URL+"/sql",
		"SELECT COUNT(*) WHERE height < 165 AND weight > 105")
	if a.Denied || a.Value != 1 {
		t.Errorf("answer = %+v, want COUNT 1", a)
	}
}

func TestHTTPDenialPropagates(t *testing.T) {
	h, _ := newTestHTTP(t, Auditing)
	a := postJSON(t, h.URL+"/sql",
		"SELECT AVG(blood_pressure) WHERE height < 165 AND weight > 105")
	if !a.Denied {
		t.Error("singleton AVG should be denied under auditing")
	}
	if a.Reason == "" {
		t.Error("denial lacks a reason")
	}
}

func TestHTTPLogShowsEverything(t *testing.T) {
	h, srv := newTestHTTP(t, NoProtection)
	postJSON(t, h.URL+"/sql", "SELECT COUNT(*) WHERE height < 170")
	postJSON(t, h.URL+"/sql", "SELECT COUNT(*) WHERE height >= 170")
	resp, err := http.Get(h.URL + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "height < 170") || !strings.Contains(out, "height >= 170") {
		t.Errorf("log missing queries:\n%s", out)
	}
	if len(srv.Log()) != 2 {
		t.Errorf("server log has %d entries", len(srv.Log()))
	}
}

// TestZeroValueAnswerRoundTrips is the regression test for the omitempty
// bug: a COUNT of 0 must serialize as an explicit "value":0, not vanish
// from the JSON object.
func TestZeroValueAnswerRoundTrips(t *testing.T) {
	raw, err := json.Marshal(AnswerJSON{Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"value":0`) {
		t.Errorf("zero answer serialized as %s — value field missing", raw)
	}

	h, _ := newTestHTTP(t, NoProtection)
	resp, err := http.Post(h.URL+"/query", "application/json",
		strings.NewReader(`{"agg":"COUNT","where":[{"col":"height","op":"<","v":-1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	if !strings.Contains(string(body), `"value":0`) {
		t.Errorf(`empty COUNT answered %s, want explicit "value":0`, body)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if v, ok := fields["value"]; !ok || v != 0.0 {
		t.Errorf("value field = %v (present %v), want 0", v, ok)
	}
}

// TestHTTPStatusAndContentType pins every handler's status code and
// Content-Type: JSON errors with correct 400/404/405, Allow on 405.
func TestHTTPStatusAndContentType(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := httptest.NewServer(NewHandler(srv, HandlerConfig{Registry: reg}))
	defer h.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCT     string
		wantAllow  string
	}{
		{"valid query", "POST", "/query", `{"agg":"COUNT","where":[]}`, 200, "application/json", ""},
		{"valid sql", "POST", "/sql", "SELECT COUNT(*) WHERE height < 180", 200, "application/json", ""},
		{"malformed json", "POST", "/query", "{", 400, "application/json", ""},
		{"unknown aggregate", "POST", "/query", `{"agg":"MEDIAN"}`, 400, "application/json", ""},
		{"bad sql", "POST", "/sql", "DROP TABLE patients", 400, "application/json", ""},
		{"query wrong method", "GET", "/query", "", 405, "application/json", "POST"},
		{"sql wrong method", "PUT", "/sql", "x", 405, "application/json", "POST"},
		{"log wrong method", "POST", "/log", "", 405, "application/json", "GET"},
		{"unknown path", "GET", "/nope", "", 404, "application/json", ""},
		{"log", "GET", "/log", "", 200, "text/plain; charset=utf-8", ""},
		{"metrics", "GET", "/metrics", "", 200, "text/plain; charset=utf-8", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, h.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Errorf("Content-Type = %q, want %q", ct, tc.wantCT)
			}
			if tc.wantAllow != "" && resp.Header.Get("Allow") != tc.wantAllow {
				t.Errorf("Allow = %q, want %q", resp.Header.Get("Allow"), tc.wantAllow)
			}
			if tc.wantStatus >= 400 {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
					t.Errorf("error body not {\"error\": ...}: decode err %v", err)
				}
			}
		})
	}
}

// TestHTTPServeConcurrentReconciles is the end-to-end exercise of serve
// semantics under concurrency (run with -race): N goroutines mix /query,
// /sql, /log and /metrics through the full middleware chain, then the
// query log and the metrics counters must reconcile exactly — every
// answered or denied request appears exactly once in both.
func TestHTTPServeConcurrentReconciles(t *testing.T) {
	srv, err := NewServer(dataset.SyntheticTrial(dataset.TrialConfig{N: 200, Seed: 1}),
		Config{Protection: SizeRestriction})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	handler := obs.Chain(NewHandler(srv, HandlerConfig{Registry: reg}),
		obs.Instrument(reg, "/query", "/sql", "/log", "/metrics"),
		obs.Recover(reg, nil),
	)
	h := httptest.NewServer(handler)
	defer h.Close()

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				threshold := 140 + (w*iters+i)%60
				resp, err := http.Post(h.URL+"/query", "application/json",
					strings.NewReader(fmt.Sprintf(
						`{"agg":"COUNT","where":[{"col":"height","op":">=","v":%d}]}`, threshold)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Post(h.URL+"/sql", "text/plain",
					strings.NewReader(fmt.Sprintf("SELECT AVG(height) WHERE height < %d", threshold)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if i%5 == 0 {
					for _, path := range []string{"/log", "/metrics"} {
						resp, err := http.Get(h.URL + path)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	const posts = workers * iters * 2
	answered := reg.Counter(obs.Label("sdcquery_answers_total", "outcome", "answered")).Value()
	denied := reg.Counter(obs.Label("sdcquery_answers_total", "outcome", "denied")).Value()
	interval := reg.Counter(obs.Label("sdcquery_answers_total", "outcome", "interval")).Value()
	errored := reg.Counter(obs.Label("sdcquery_answers_total", "outcome", "error")).Value()
	if answered+denied+interval+errored != posts {
		t.Errorf("outcomes %d+%d+%d+%d != %d posted queries",
			answered, denied, interval, errored, posts)
	}
	if errored != 0 || interval != 0 {
		t.Errorf("unexpected outcomes under size restriction: interval=%d error=%d", interval, errored)
	}
	if denied == 0 {
		t.Error("size restriction never denied — thresholds too lax to exercise both outcomes")
	}
	if got := srv.LogDepth(); got != posts {
		t.Errorf("query log depth = %d, want %d (every request logged exactly once)", got, posts)
	}
	for _, ep := range []string{"/query", "/sql"} {
		want := int64(posts / 2)
		if got := reg.Counter(obs.Label("http_requests_total", "endpoint", ep)).Value(); got != want {
			t.Errorf("http_requests_total %s = %d, want %d", ep, got, want)
		}
	}

	// The scrape view agrees with the in-memory counters.
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`sdcquery_answers_total{outcome="answered"} %d`, answered),
		fmt.Sprintf(`sdcquery_answers_total{outcome="denied"} %d`, denied),
		fmt.Sprintf("sdcquery_log_depth %d", posts),
	} {
		if !strings.Contains(string(scrape), want+"\n") {
			t.Errorf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	h, _ := newTestHTTP(t, NoProtection)
	// Malformed JSON.
	resp, err := http.Post(h.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}
	// Unknown aggregate.
	resp, err = http.Post(h.URL+"/query", "application/json", strings.NewReader(`{"agg":"MEDIAN"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown aggregate status = %d", resp.StatusCode)
	}
	// Bad SQL.
	resp, err = http.Post(h.URL+"/sql", "text/plain", strings.NewReader("DROP TABLE patients"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad SQL status = %d", resp.StatusCode)
	}
	// Unknown path.
	resp, err = http.Get(h.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

// TestHTTPCompileErrorBodies pins the exact bytes a client receives for
// each predicate compile error on /query and /querybatch, including the
// "sdcquery:" prefix: clients match on these texts.
func TestHTTPCompileErrorBodies(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(srv, HandlerConfig{})
	cases := []struct {
		name, where, msg string
	}{
		{"unknown column", `{"col":"nope","op":"=","v":1}`,
			`sdcquery: unknown column \"nope\"`},
		{"ordered op on categorical", `{"col":"aids","op":"<","s":"Y"}`,
			`sdcquery: operator \u003c not valid for categorical column \"aids\"`},
		{"string value on numeric", `{"col":"height","op":"=","s":"tall"}`,
			`sdcquery: string value \"tall\" for numeric column \"height\"`},
		{"numeric value on categorical", `{"col":"aids","op":"=","v":3}`,
			`sdcquery: numeric value 3 for categorical column \"aids\"`},
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rr
	}
	for _, c := range cases {
		q := `{"agg":"COUNT","where":[` + c.where + `]}`
		rr := post("/query", q)
		if want := `{"error":"` + c.msg + `"}` + "\n"; rr.Code != http.StatusBadRequest || rr.Body.String() != want {
			t.Errorf("%s: /query = %d %q, want 400 %q", c.name, rr.Code, rr.Body, want)
		}
		rr = post("/querybatch", `{"queries":[`+q+`]}`)
		if want := `{"answers":[{"value":0,"lo":0,"hi":0,"error":"` + c.msg + `"}]}` + "\n"; rr.Code != http.StatusOK || rr.Body.String() != want {
			t.Errorf("%s: /querybatch = %d %q, want 200 %q", c.name, rr.Code, rr.Body, want)
		}
	}
}
