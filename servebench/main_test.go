package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric and
// workload lists identical to the registered ones.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchFile(t)
	for _, c := range []struct {
		kind string
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program %s %s", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestAllWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and checks that each registered metric is printed with its
// unit and carried in the result line.
func TestAllWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchFile(t)
	for _, c := range []struct {
		trace string
		defs  []struct{ Name, Unit string }
	}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "all", "--scale", "0.002", "--seconds", "2",
			"--trace", c.trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\nstderr:\n%s", c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not a result: %v", c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: result %+v", c.trace, res)
		}
		printed := map[string]bool{}
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 4 {
				printed[f[0]+" "+f[1]+" "+f[3]] = true
			}
		}
		for _, w := range b.Workloads {
			// Every run prints its result-line metrics, the ungated
			// end-to-end metrics and fail_frac.
			want := append([]metricDef{{"fail_frac", "ratio"}}, ungated...)
			for _, d := range c.defs {
				want = append(want, metricDef{d.Name, d.Unit})
				if m, ok := res.Metrics[w.Name+"/"+d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("trace %s: result line lacks %s/%s in %s", c.trace, w.Name, d.Name, d.Unit)
				}
			}
			for _, d := range want {
				if !printed[w.Name+" "+d.name+" "+d.unit] {
					t.Errorf("trace %s: %s %s (%s) not printed", c.trace, w.Name, d.name, d.unit)
				}
			}
		}
	}
}

// TestCheckerCatchesPlantedViolations plants a resurrected id and a
// wrong live count and expects both to be reported as failures.
func TestCheckerCatchesPlantedViolations(t *testing.T) {
	deletedAt := map[int64]int64{7: 1000}
	answers := []answer{
		{query: 0, sentNs: 900, ids: []int64{1, 7}},  // sent before the delete was acknowledged
		{query: 1, sentNs: 1100, ids: []int64{2, 3}}, // clean
		{query: 2, sentNs: 1200, ids: []int64{7, 4}}, // planted resurrection
	}
	if bad, first := resurrections(deletedAt, answers); bad != 1 || !strings.Contains(first, "query 2") {
		t.Errorf("resurrections = %d (%q), want 1 naming query 2", bad, first)
	}
	if err := countMismatch(20000, 20001); err == nil {
		t.Error("countMismatch accepted a planted wrong count")
	}
	if err := countMismatch(20000, 20000); err != nil {
		t.Errorf("countMismatch rejected a matching count: %v", err)
	}

	// A failure recorded in a report makes the result incorrect, which
	// makes the command exit non-zero.
	rep := &report{attempted: 3, vals: map[string]float64{}}
	rep.fail(1, "planted")
	if res := rep.result(false); res.Correct || res.Failed != 1 {
		t.Errorf("result after a failure = %+v, want incorrect with 1 failed", res)
	}
}

// TestWriteStreamTargetsLiveIDs checks the generator's invariant the
// acknowledgment checks rely on: deletes and updates name live ids, and
// inserts name fresh ones.
func TestWriteStreamTargetsLiveIDs(t *testing.T) {
	in, err := makeInputs(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	n := in.ds.N()
	live := map[int64]bool{}
	for i := 0; i < n; i++ {
		live[int64(i)] = true
	}
	ops := writeStream(in.ds, 1, 1000, int64(n))
	kinds := map[opKind]int{}
	for i, op := range ops {
		kinds[op.kind]++
		switch op.kind {
		case opInsert:
			if live[op.id] {
				t.Fatalf("op %d inserts live id %d", i, op.id)
			}
			live[op.id] = true
		case opDelete:
			if !live[op.id] {
				t.Fatalf("op %d deletes dead id %d", i, op.id)
			}
			delete(live, op.id)
		case opUpdate:
			if !live[op.id] {
				t.Fatalf("op %d updates dead id %d", i, op.id)
			}
		}
	}
	if kinds[opVacuum] != 10 || kinds[opInsert] < 600 || kinds[opDelete] < 150 || kinds[opUpdate] < 60 {
		t.Errorf("mix %v, want ~69%% insert, 20%% delete, 10%% update, 1%% vacuum", kinds)
	}
	again := writeStream(in.ds, 1, 1000, int64(n))
	for i := range ops {
		if ops[i].sql != again[i].sql {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
	}
}
