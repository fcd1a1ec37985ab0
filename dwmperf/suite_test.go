package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

func golden(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/dwmbench_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckSuiteIgnoresOnlyE8Time(t *testing.T) {
	want := splitTables(golden(t))
	if len(want) != suiteExperiments {
		t.Fatalf("oracle has %d tables", len(want))
	}
	o := newOutcome()
	if ok := checkSuite(o, want, golden(t)); len(ok) != suiteExperiments || o.failed != 0 {
		t.Fatalf("oracle against itself: %d ok, problems %v", len(ok), o.problems)
	}

	// A different E8 time column (and so different alignment) passes.
	e8 := strings.Replace(string(golden(t)), "greedy           64    0.09       11837",
		"greedy           64    120.25     11837", 1)
	o = newOutcome()
	if checkSuite(o, want, []byte(e8)); o.failed != 0 {
		t.Fatalf("E8 time change failed the check: %v", o.problems)
	}

	// A different E8 cost fails it, and so does any change elsewhere.
	for _, bad := range []struct{ old, new string }{
		{"greedy           64    0.09       11837", "greedy           64    0.09       11838"},
		{"fir        556001   688124", "fir        556002   688124"},
	} {
		out := strings.Replace(string(golden(t)), bad.old, bad.new, 1)
		o = newOutcome()
		if checkSuite(o, want, []byte(out)); o.failed != 1 || o.attempted != suiteExperiments {
			t.Errorf("%q → %q: %d failed of %d", bad.old, bad.new, o.failed, o.attempted)
		}
	}
}

func TestE2Ratio(t *testing.T) {
	r, err := e2Ratio(golden(t))
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0.3 || r >= 1 {
		t.Fatalf("E2 geometric-mean ratio %g outside (0.3, 1)", r)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	span := func(start, end int64) obs.SpanRecord { return obs.SpanRecord{StartNS: start, DurNS: end - start} }
	parent := span(0, 100)
	kids := []obs.SpanRecord{span(10, 30), span(20, 50), span(90, 200)}
	if got := covered(parent, kids); got != 40+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
