package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests", "endpoint", "status")
	c.Add(1, "query", "200")
	c.Add(2, "query", "200")
	c.Add(1, "query", "400")
	c.With("poll", "200").Inc()
	if got := r.Value("test_requests_total", "query", "200"); got != 3 {
		t.Fatalf("Value(query,200) = %v, want 3", got)
	}
	if got := r.SumValues("test_requests_total"); got != 5 {
		t.Fatalf("SumValues = %v, want 5", got)
	}
	// Counters never go down.
	c.With("query", "200").Add(-10)
	if got := r.Value("test_requests_total", "query", "200"); got != 3 {
		t.Fatalf("counter moved down: %v", got)
	}
	g := r.Gauge("test_depth", "queue depth")
	g.Set(7)
	g.With().Add(-2)
	if got := g.With().Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1}, "endpoint")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v, "query")
	}
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{endpoint="query",le="0.01"} 1`,
		`test_latency_seconds_bucket{endpoint="query",le="0.1"} 2`,
		`test_latency_seconds_bucket{endpoint="query",le="1"} 3`,
		`test_latency_seconds_bucket{endpoint="query",le="+Inf"} 4`,
		`test_latency_seconds_sum{endpoint="query"} 5.555`,
		`test_latency_seconds_count{endpoint="query"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if got := h.With("query").Count(); got != 4 {
		t.Fatalf("Count = %d", got)
	}
}

func TestWriteFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last by name").Add(1)
	r.Gauge("aaa_value", `help with \ and newline`+"\n").Set(2.5)
	reads := 0
	g := NewGroup(r, func() float64 { reads++; return float64(reads) })
	g.Collect("mmm_info", "collected", KindGauge, []string{"stream"}, func(v float64, emit EmitFunc) {
		emit(v, `ta"ipei`)
	})
	g.Collect("mmm_more", "same reading", KindGauge, nil, func(v float64, emit EmitFunc) { emit(v) })
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if reads != 1 || !strings.Contains(out, "mmm_more 1\n") {
		t.Fatalf("a scrape read its group's source %d times, want once for both families:\n%s", reads, out)
	}
	// Families sorted by name.
	ai, mi, zi := strings.Index(out, "aaa_value"), strings.Index(out, "mmm_info"), strings.Index(out, "zzz_total")
	if !(ai >= 0 && ai < mi && mi < zi) {
		t.Fatalf("families not sorted: %d %d %d\n%s", ai, mi, zi, out)
	}
	for _, want := range []string{
		`# HELP aaa_value help with \\ and newline\n`,
		"# TYPE aaa_value gauge",
		"aaa_value 2.5",
		`mmm_info{stream="ta\"ipei"} 1`,
		"zzz_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name{labels} value" with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c", "worker")
	h := r.Histogram("conc_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < 1000; i++ {
				c.Add(1, name)
				h.Observe(0.001)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := r.SumValues("conc_total"); got != 8000 {
		t.Fatalf("SumValues = %v, want 8000", got)
	}
}

func TestInvalidRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name": func() { r.Counter("9bad", "x") },
		"bad label":       func() { r.Counter("ok_total", "x", "le") },
		"schema conflict": func() { r.Counter("dup_total", "x"); r.Gauge("dup_total", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
