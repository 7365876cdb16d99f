package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// knownFailures is the count of operations each workload fails on every
// run because of a fault in the program the benchmark leaves standing:
// ingest-crm1's fold of the ucatload -ingest device (see foldWide).
var knownFailures = map[string]int64{"ingest-crm1": 1}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// scale: every check passes, no operation fails but the known ones, and
// the metrics printed are exactly those BENCHMARK.json lists, with the
// same units.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(names), len(workloads))
	}
	units := map[bool]map[string]string{true: {}, false: {}}
	for _, m := range bf.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				trace := "0"
				if traced {
					trace = "1"
				}
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.3",
					"--trace", trace, "--scale", "0.01", "--tmp", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != knownFailures[w] || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d (known %d)\n%s",
						res.Correct, res.Attempted, res.Failed, knownFailures[w], out.String())
				}
				want := units[traced]
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if want[name] != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json has %q", name, m.Unit, want[name])
					}
					// At 1% scale the whole store fits the pool, so reads
					// after warm-up may miss nothing.
					if !traced && m.Value <= 0 && name != "ios_per_query" {
						t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d: %v", len(got), len(want), got)
				}
			})
		}
	}
}
