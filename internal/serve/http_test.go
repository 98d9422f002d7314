package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.ResultsDir == "" {
		cfg.ResultsDir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		// Cancel stragglers so Close never waits out a long blocker job.
		for _, st := range m.List() {
			m.Cancel(st.ID)
		}
		m.Close()
	})
	return m, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// TestHTTPSubmitStatusResult drives the full REST lifecycle of one job:
// 202 + Location on submit, status polling, 409 + Retry-After while
// unfinished is tolerated, then a validated BenchRecord from /result.
func TestHTTPSubmitStatusResult(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, EventEvery: 1})

	resp, st := postJob(t, srv, `{"scenario":"sedov","size":4,"iterations":6,"tenant":"acme"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Errorf("Location = %q, want /jobs/%s", loc, st.ID)
	}
	if st.Tenant != "acme" || st.Size != 4 {
		t.Errorf("submit echo: %+v", st)
	}

	// Poll /result until 200; unfinished polls must answer 409 with
	// Retry-After, never 404/500.
	deadline := time.Now().Add(30 * time.Second)
	var rec struct {
		JobID    string             `json:"job_id"`
		Counters map[string]float64 `json:"counters"`
		FOM      float64            `json:"fom_zps"`
	}
	for {
		r, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
				t.Fatalf("decode result: %v", err)
			}
			r.Body.Close()
			break
		}
		if r.StatusCode != http.StatusConflict {
			t.Fatalf("result poll status = %d, want 200 or 409", r.StatusCode)
		}
		if r.Header.Get("Retry-After") == "" {
			t.Error("409 without Retry-After header")
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec.JobID != st.ID {
		t.Errorf("result job_id = %q, want %q", rec.JobID, st.ID)
	}
	if rec.Counters["origin_energy"] == 0 {
		t.Error("result carries no origin_energy counter")
	}

	// Status endpoint agrees.
	r, err := http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	json.NewDecoder(r.Body).Decode(&got)
	r.Body.Close()
	if got.State != StateDone || got.Cycle != 6 {
		t.Errorf("final status = %+v, want done at cycle 6", got)
	}

	// Unknown job: 404.
	r, _ = http.Get(srv.URL + "/jobs/job-999999")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
}

// TestHTTPRetiredTogglesIgnored: JSON keys of toggles the runtime no
// longer has (the task backend's scheduling toggles, dist's ghost-frame
// coalescing) are ignored like any unknown key, so old clients still get
// 202.
func TestHTTPRetiredTogglesIgnored(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, _ := postJob(t, srv,
		`{"size":3,"iterations":2,"affinity":false,"batch_spawn":true,"adaptive_grain":true,"coalesce":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with retired toggle keys: status %d, want 202", resp.StatusCode)
	}
}

// TestHTTPStructuredScenarioError: a bad scenario option must come back as
// a structured 400 naming the unknown key and the valid alternatives.
func TestHTTPStructuredScenarioError(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenario":"piston:sped=3"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.UnknownKey != "sped" {
		t.Errorf("unknown_key = %q, want sped", e.UnknownKey)
	}
	if e.Scenario != "piston" {
		t.Errorf("scenario = %q, want piston", e.Scenario)
	}
	if len(e.Valid) == 0 {
		t.Error("structured 400 lists no valid keys")
	}

	// Unknown scenario name: same envelope, valid = registry names.
	resp2, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenario":"blastwave"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var e2 apiError
	json.NewDecoder(resp2.Body).Decode(&e2)
	if resp2.StatusCode != http.StatusBadRequest || e2.UnknownKey != "blastwave" || len(e2.Valid) == 0 {
		t.Errorf("unknown scenario: status %d envelope %+v", resp2.StatusCode, e2)
	}
}

// TestHTTPAdmission429 exercises the wire shape of an admission rejection:
// status 429 plus a Retry-After header.
func TestHTTPAdmission429(t *testing.T) {
	_, srv := newTestServer(t, Config{
		Workers: 1, MaxRunning: 1, MaxQueued: 4, MaxInflightZones: 400,
	})

	// The blocker job's iteration cap is effectively unbounded so it is
	// still holding the budget when the overflow submission arrives; the
	// server cleanup cancels it.
	resp, _ := postJob(t, srv, `{"size":6,"iterations":100000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp2, _ := postJob(t, srv, `{"size":6,"iterations":1}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestHTTPEventsSSE subscribes to a job's event stream and asserts the SSE
// framing: a queued/running state frame, per-cycle progress frames with
// energies, and a terminal done frame, after which the stream ends.
func TestHTTPEventsSSE(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, EventEvery: 1})

	_, st := postJob(t, srv, `{"size":4,"iterations":5}`)
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type frame struct{ event, data string }
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	cur := frame{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	// The server closes the stream after the terminal frame, ending Scan.

	var progress, done int
	for _, f := range frames {
		switch f.event {
		case "progress":
			progress++
			var p struct {
				Cycle  int     `json:"cycle"`
				Energy float64 `json:"energy"`
				Dt     float64 `json:"dt"`
			}
			if err := json.Unmarshal([]byte(f.data), &p); err != nil {
				t.Fatalf("progress frame %q: %v", f.data, err)
			}
			if p.Cycle < 1 || p.Cycle > 5 {
				t.Errorf("progress cycle %d outside run", p.Cycle)
			}
			if p.Energy == 0 {
				t.Errorf("progress frame without energy: %q", f.data)
			}
		case "done":
			done++
		case "failed", "cancelled":
			t.Fatalf("unexpected terminal frame %s: %s", f.event, f.data)
		}
	}
	if progress == 0 {
		t.Error("no progress frames streamed")
	}
	if done != 1 {
		t.Errorf("done frames = %d, want exactly 1", done)
	}
	if frames[len(frames)-1].event != "done" {
		t.Errorf("stream did not end with the terminal frame: %+v", frames[len(frames)-1])
	}
}

// TestHTTPCancelAndGone: DELETE cancels; /result on a cancelled job is 410.
func TestHTTPCancelAndGone(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1, MaxRunning: 1})

	_, st := postJob(t, srv, `{"size":8,"iterations":5000}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	waitState(t, m, st.ID, 30*time.Second)

	r, _ := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled job = %d, want 410", r.StatusCode)
	}
}

// TestHTTPHealthAndDrain: healthz flips to 503 once draining, and new
// submissions are refused with 503 + Retry-After.
func TestHTTPHealthAndDrain(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", r.StatusCode)
	}

	if err := m.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r, _ = http.Get(srv.URL + "/healthz")
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", r.StatusCode)
	}
	resp, _ := postJob(t, srv, `{"size":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
}

// TestHTTPList: the listing returns jobs in admission order.
func TestHTTPList(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		_, st := postJob(t, srv, fmt.Sprintf(`{"size":4,"iterations":2,"tenant":"t%d"}`, i))
		ids = append(ids, st.ID)
	}
	r, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (admission order)", i, j.ID, ids[i])
		}
	}
}
