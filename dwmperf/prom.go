package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// parseExposition reads a Prometheus text exposition into series →
// value. A series is keyed by its name plus its label set exactly as
// written ("dwm_x_bucket{le=\"5\"}"); comment lines are skipped and a
// bucket's trailing exemplar annotation (" # {trace_id=...} v") is
// dropped.
func parseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if i := strings.Index(l, " # "); i >= 0 {
			l = l[:i]
		}
		sp := strings.LastIndexByte(l, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(l[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[l[:sp]] = v
	}
	return out, sc.Err()
}

// metricsDiff is after − before for every series in after. A series
// absent before counts from zero (the daemon registers some instruments
// lazily, on first use).
func metricsDiff(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
