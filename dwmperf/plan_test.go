package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func placeBodies(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	items, err := planPlace(seed, "place", n)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	keys := map[string]bool{}
	for _, it := range items {
		if keys[it.Key] {
			t.Fatalf("seed %d: graph %s planned twice", seed, it.Key)
		}
		keys[it.Key] = true
		b, err := json.Marshal(it.Req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestPlanPlaceDeterministic(t *testing.T) {
	a, b := placeBodies(t, 7, 64), placeBodies(t, 7, 64)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two plans of seed 7", i)
		}
	}
	c := placeBodies(t, 8, 64)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 planned identical requests")
	}
}

func TestPlanPlaceRegeneratesSubmittedTrace(t *testing.T) {
	items, err := planPlace(3, "hot", hotSetSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:4] {
		tr := it.Make()
		if tr.Len() == 0 || it.Req.Iterations != placeIterations {
			t.Fatalf("%s: %d accesses, %d iterations", it.Key, tr.Len(), it.Req.Iterations)
		}
	}
}

func TestHotOrderCoversSetEachPass(t *testing.T) {
	a, b := hotOrder(5, 3*hotSetSize+7), hotOrder(5, 3*hotSetSize+7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hot order is not deterministic")
		}
	}
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for _, k := range a[pass*hotSetSize : (pass+1)*hotSetSize] {
			seen[k] = true
		}
		if len(seen) != hotSetSize {
			t.Fatalf("pass %d touches %d of %d requests", pass, len(seen), hotSetSize)
		}
	}
}

func TestPlanStreamsDeterministic(t *testing.T) {
	a, b := planStreams(11, 100), planStreams(11, 100)
	if len(a) != 4 {
		t.Fatalf("%d streams for 100 appends, want 4", len(a))
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("stream plans differ for one seed")
	}
	for _, p := range a {
		for _, batch := range p.Batches {
			for _, x := range batch {
				if x < 0 || x >= p.Req.Items {
					t.Fatalf("%s: access %d outside [0,%d)", p.Req.Name, x, p.Req.Items)
				}
			}
		}
	}
}
