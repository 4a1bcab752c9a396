package monitor

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, g *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := g.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWritePrometheusSeries(t *testing.T) {
	g := NewRegistry()
	r := New("cloud", 32)
	g.Register(r)
	r.Record("get", 5*time.Millisecond, 100, false)
	r.Record("get", 7*time.Millisecond, 200, true)
	r.Record("put", time.Millisecond, 50, false)

	out := scrape(t, g)
	for _, want := range []string{
		`edsc_op_total{store="cloud",op="get"} 2`,
		`edsc_op_total{store="cloud",op="put"} 1`,
		`edsc_op_errors_total{store="cloud",op="get"} 1`,
		`edsc_op_bytes_total{store="cloud",op="get"} 300`,
		`edsc_op_latency_seconds_bucket{store="cloud",op="get",le="+Inf"} 2`,
		`edsc_op_latency_seconds_count{store="cloud",op="get"} 2`,
		"# TYPE edsc_op_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	// Finite le buckets must be present and parse as seconds.
	if !strings.Contains(out, `op="get",le="0.00`) {
		t.Errorf("no finite latency bucket for get:\n%s", out)
	}
}

func TestRegistryCounterGroups(t *testing.T) {
	g := NewRegistry()
	g.RegisterCounters("edsc_resilience_events_total", map[string]string{"store": "cloud"},
		func() map[string]int64 { return map[string]int64{"retry": 3, "hedge": 1} })
	out := scrape(t, g)
	for _, want := range []string{
		`edsc_resilience_events_total{store="cloud",event="hedge"} 1`,
		`edsc_resilience_events_total{store="cloud",event="retry"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
}

func TestServeMountsObservabilitySurface(t *testing.T) {
	g := NewRegistry()
	r := New("s", 32)
	g.Register(r)
	r.Record("get", time.Millisecond, 10, false)

	srv, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, `edsc_op_total{store="s",op="get"} 1`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body = get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "edsc_monitor") {
		t.Fatalf("/debug/vars = %d (edsc_monitor present: %v)", code, strings.Contains(body, "edsc_monitor"))
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
