package main

import "testing"

const expositionBefore = `# TYPE dwm_serve_jobs_done counter
dwm_serve_jobs_done 5
# TYPE dwm_serve_job_wall_count counter
dwm_serve_job_wall_count 5
# TYPE dwm_serve_job_wall_total_ns counter
dwm_serve_job_wall_total_ns 50000000
# TYPE dwm_serve_tenant_wall_ms histogram
dwm_serve_tenant_wall_ms_bucket{tenant="default",le="1"} 0
dwm_serve_tenant_wall_ms_bucket{tenant="default",le="+Inf"} 5 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 12
dwm_serve_tenant_wall_ms_sum{tenant="default"} 60
dwm_serve_tenant_wall_ms_count{tenant="default"} 5
`

const expositionAfter = `# TYPE dwm_serve_jobs_done counter
dwm_serve_jobs_done 12
# TYPE dwm_serve_job_wall_count counter
dwm_serve_job_wall_count 12
# TYPE dwm_serve_job_wall_total_ns counter
dwm_serve_job_wall_total_ns 155000000
# TYPE dwm_serve_tenant_wall_ms histogram
dwm_serve_tenant_wall_ms_bucket{tenant="default",le="1"} 1
dwm_serve_tenant_wall_ms_bucket{tenant="default",le="+Inf"} 12 # {trace_id="00f067aa0ba902b74bf92f3577b34da6"} 9
dwm_serve_tenant_wall_ms_sum{tenant="default"} 140
dwm_serve_tenant_wall_ms_count{tenant="default"} 12
# TYPE dwm_serve_wal_appends counter
dwm_serve_wal_appends 24
`

func TestMetricsDiff(t *testing.T) {
	before, err := parseExposition(expositionBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(expositionAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := metricsDiff(before, after)
	want := map[string]float64{
		"dwm_serve_jobs_done":                                         7,
		"dwm_serve_job_wall_count":                                    7,
		"dwm_serve_job_wall_total_ns":                                 105e6,
		`dwm_serve_tenant_wall_ms_bucket{tenant="default",le="1"}`:    1,
		`dwm_serve_tenant_wall_ms_bucket{tenant="default",le="+Inf"}`: 7,
		`dwm_serve_tenant_wall_ms_sum{tenant="default"}`:              80,
		"dwm_serve_wal_appends":                                       24, // new after the first scrape
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("diff[%s] = %g, want %g", k, d[k], v)
		}
	}
	if len(d) != len(after) {
		t.Errorf("diff has %d series, after has %d", len(d), len(after))
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, text := range []string{"dwm_x\n", "dwm_x notanumber\n"} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("parseExposition(%q) succeeded", text)
		}
	}
}
