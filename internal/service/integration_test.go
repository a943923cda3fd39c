package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xsim"
)

// table2Spec is the small Table II campaign the integration tests
// submit: the fast 64-rank scale the repo's other tests use.
const table2Spec = `{"version":1,"kind":"table2","ranks":64,"seed":133,
  "table2":{"iterations":200,"intervals":[100,50],"mttf_seconds":[1000]}}`

func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, srv
}

func submit(t *testing.T, srv *httptest.Server, tenant, spec string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest("POST", srv.URL+"/v1/campaigns", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return status, resp.StatusCode
}

// streamUntilDone reads the NDJSON event stream until the terminal line
// and returns every event.
func streamUntilDone(t *testing.T, srv *httptest.Server, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev["event"] == "done" {
			return events
		}
	}
	t.Fatalf("stream ended without a done event (%d events)", len(events))
	return nil
}

func fetchMetrics(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func metricValue(t *testing.T, text, name string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestServerEndToEnd is the tentpole's acceptance path: submit a small
// Table II campaign over HTTP, stream its progress, verify the stored
// result is byte-identical to running the same wire spec in-process (the
// CLI path), then resubmit — with different execution knobs — and
// observe a cache hit that runs zero new simulations, asserted via the
// /metrics counters.
func TestServerEndToEnd(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})

	status, code := submit(t, srv, "alice", table2Spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if status.State != StateQueued || status.Key == "" {
		t.Fatalf("submit returned %+v", status)
	}

	// Stream progress: expect state + progress lines and a completed
	// terminal event.
	events := streamUntilDone(t, srv, status.ID)
	last := events[len(events)-1]
	if last["state"] != StateCompleted {
		t.Fatalf("terminal event = %v", last)
	}
	sawProgress := false
	for _, ev := range events {
		if ev["event"] == "progress" {
			sawProgress = true
			data := ev["data"].(map[string]any)
			if data["total"].(float64) <= 0 {
				t.Fatalf("progress event without a total: %v", ev)
			}
		}
	}
	if !sawProgress {
		t.Fatal("no progress events streamed")
	}

	// The served result must be byte-identical to executing the same
	// wire spec in-process — exactly what xsim-run -campaign prints.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := readAll(resp)
	spec, err := xsim.DecodeCampaignSpec([]byte(table2Spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.RunWith(context.Background(), xsim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := out.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	local = append(local, '\n') // xsim-run -campaign prints a trailing newline
	if !bytes.Equal(served, local) {
		t.Fatalf("served result differs from local run:\nserved %s\nlocal  %s", served, local)
	}

	// Resubmit with different execution knobs and another tenant: the
	// canonical key ignores knobs, so this must be an instant cache hit.
	knobbed := strings.Replace(table2Spec, `"ranks":64`, `"ranks":64,"workers":2,"pool":1`, 1)
	status2, code2 := submit(t, srv, "bob", knobbed)
	if code2 != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200 (cache hit)", code2)
	}
	if status2.State != StateCompleted || !status2.Cached {
		t.Fatalf("resubmit returned %+v, want completed+cached", status2)
	}
	if status2.Key != status.Key {
		t.Fatalf("knobbed resubmit keyed differently: %s vs %s", status2.Key, status.Key)
	}

	metrics := fetchMetrics(t, srv)
	if v := metricValue(t, metrics, "xsim_sim_runs_total"); v != 1 {
		t.Errorf("sim runs = %d, want 1 (resubmission must not simulate)", v)
	}
	if v := metricValue(t, metrics, "xsim_cache_hits_total"); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
	if v := metricValue(t, metrics, "xsim_cache_misses_total"); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}

	// The cached job's result is served from the same stored bytes.
	resp2, err := http.Get(srv.URL + "/v1/campaigns/" + status2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := readAll(resp2)
	if !bytes.Equal(cached, served) {
		t.Fatal("cached job served different result bytes")
	}
}

// TestServerDedupesInFlight pins leader/follower dedup: an identical
// spec submitted while the first is still queued or running joins it
// instead of simulating twice. The single worker is held before it runs
// anything until both copies are in, so the join does not depend on any
// campaign being slow.
func TestServerDedupesInFlight(t *testing.T) {
	svc, srv := startServer(t, Config{Workers: 1})
	hold := make(chan struct{})
	svc.beforeRun = func(*job) { <-hold }

	// The worker takes the blocker and waits on hold; the leader stays
	// queued behind it.
	blocker, code := submit(t, srv, "alice", table2Spec)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	fast := `{"version":1,"kind":"table1","seed":9,"table1":{"victims":20,"max_injections":50}}`
	first, code := submit(t, srv, "alice", fast)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	second, code := submit(t, srv, "bob", fast)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	if second.Key != first.Key {
		t.Fatal("identical specs keyed differently")
	}
	close(hold)

	for _, id := range []string{blocker.ID, first.ID, second.ID} {
		streamUntilDone(t, srv, id)
	}
	metrics := fetchMetrics(t, srv)
	if v := metricValue(t, metrics, "xsim_sim_runs_total"); v != 2 {
		t.Errorf("sim runs = %d, want 2 (dedup must not simulate the join)", v)
	}
	if v := metricValue(t, metrics, "xsim_dedup_joins_total"); v != 1 {
		t.Errorf("dedup joins = %d, want 1", v)
	}

	ra, _ := http.Get(srv.URL + "/v1/campaigns/" + first.ID + "/result")
	rb, _ := http.Get(srv.URL + "/v1/campaigns/" + second.ID + "/result")
	a, _ := readAll(ra)
	b, _ := readAll(rb)
	if !bytes.Equal(a, b) || len(a) == 0 {
		t.Fatalf("leader/follower results differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestServerErrorMapping pins the typed-error → status-code contract.
func TestServerErrorMapping(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 1})

	post := func(body string) (int, apiError) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		return resp.StatusCode, ae
	}

	// Malformed JSON, unknown fields, and validation failures are 400s
	// with the offending fields named.
	if code, _ := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", code)
	}
	if code, ae := post(`{"version":1,"kind":"table1","bogus":1}`); code != http.StatusBadRequest ||
		len(ae.Fields) != 1 || ae.Fields[0] != "bogus" {
		t.Errorf("unknown field = %d %+v, want 400 naming bogus", code, ae)
	}
	if code, ae := post(`{"version":3,"kind":"nope"}`); code != http.StatusBadRequest || len(ae.Fields) < 2 {
		t.Errorf("bad version+kind = %d %+v, want 400 naming both", code, ae)
	}
	if code, _ := post(``); code != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", code)
	}
	// A value the application would refuse mid-run is refused here.
	if code, ae := post(`{"version":1,"kind":"io-ablation","io_ablation":{"delta_fraction":1}}`); code != http.StatusBadRequest ||
		len(ae.Fields) != 1 || ae.Fields[0] != "io_ablation.delta_fraction" {
		t.Errorf("delta_fraction 1 = %d %+v, want 400 naming io_ablation.delta_fraction", code, ae)
	}
	if code, _ := post(`{"version":1,"kind":"io-ablation","ranks":8,"io_ablation":{"iterations":8,"intervals":[4],"mttf_seconds":[20],"delta_fraction":0.999999}}`); code != http.StatusAccepted {
		t.Errorf("delta_fraction 0.999999 = %d, want 202", code)
	}

	// Unknown campaign IDs are 404s.
	resp, err := http.Get(srv.URL + "/v1/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", resp.StatusCode)
	}

	// Healthz answers.
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestServerQuota pins the 429 mapping: a tenant at its quota of
// unfinished jobs is rejected until one finishes, while other tenants
// are unaffected.
func TestServerQuota(t *testing.T) {
	_, srv := startServer(t, Config{
		Workers: 1,
		Queue:   QueueConfig{DefaultQuota: 1},
	})

	first, code := submit(t, srv, "alice", table2Spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	other := `{"version":1,"kind":"table1","seed":5,"table1":{"victims":5,"max_injections":50}}`
	if _, code := submit(t, srv, "alice", other); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", code)
	}
	if _, code := submit(t, srv, "bob", other); code != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", code)
	}
	streamUntilDone(t, srv, first.ID)
	if _, code := submit(t, srv, "alice", other); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("post-completion submit = %d, want accepted", code)
	}
}

// TestServerDrain pins graceful shutdown: drain stops intake (503),
// finishes or cancels everything, flushes completed results, and leaks
// no goroutines.
func TestServerDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 2})
	// A worker that takes the pending job below holds it until the drain
	// has cancelled the runs, so the job cannot finish first however fast
	// a 64-rank campaign is.
	var taken atomic.Int32
	svc.beforeRun = func(*job) {
		if taken.Add(1) > 1 {
			<-svc.runCtx.Done()
		}
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	done, code := submit(t, srv, "alice", table2Spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	streamUntilDone(t, srv, done.ID)

	// Queue one more and drain immediately: it is cancelled, not run.
	pending, code := submit(t, srv, "alice",
		`{"version":1,"kind":"table2","ranks":64,"seed":134,"table2":{"iterations":200,"intervals":[100],"mttf_seconds":[1000]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Intake is closed: new (uncached) submissions map to 503. Cached
	// specs still answer 200 — results outlive the queue.
	uncached := `{"version":1,"kind":"table1","seed":77,"table1":{"victims":3,"max_injections":50}}`
	if _, code := submit(t, srv, "alice", uncached); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", code)
	}
	if _, code := submit(t, srv, "alice", table2Spec); code != http.StatusOK {
		t.Fatalf("cached submit after drain = %d, want 200", code)
	}

	// The completed job's result survived the drain.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + done.ID + "/result")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result after drain = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// The pending job ended cancelled (either flushed from the queue or
	// cancelled mid-run through the simulator's cancellation path).
	st, ok := svc.Job(pending.ID)
	if !ok || (st.State != StateCancelled && st.State != StateFailed) {
		t.Fatalf("pending job after drain = %+v", st)
	}

	// No leaked goroutines: workers exited, subscribers closed. Allow
	// the runtime a moment to reap HTTP keep-alives.
	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d before, %d after drain\n%s", before, runtime.NumGoroutine(), buf[:n])
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
