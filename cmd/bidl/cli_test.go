package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var goldenUpdate = flag.Bool("golden-update", false, "regenerate testdata/*.golden")

// cliRow is one pinned command line (or a sequence that shares files): the
// golden holds every step's stdout and exit code, then the named output
// files. "$TMP" in a step expands to the row's private temp dir, and is put
// back wherever the output echoes the path.
type cliRow struct {
	name  string
	steps []string
	files []string
}

const (
	small    = "run -rate 4000 -duration 300ms"
	examples = "../../examples/scenario-"
	jsonl    = "testdata/run-300ms.jsonl" // run -orgs 4 -rate 400 -duration 300ms -trace-jsonl
)

// cliMatrix was recorded from the separate binaries this command replaced,
// one per subcommand, and replays byte for byte through run.
var cliMatrix = []cliRow{
	{name: "run-default", steps: []string{small}},
	{name: "run-hotstuff", steps: []string{small + " -protocol hotstuff -orgs 25"}},
	{name: "run-contention", steps: []string{small + " -contention 0.5 -nondet 0.1"}},
	{name: "run-loss", steps: []string{small + " -loss 0.01"}},
	{name: "run-attack-leader", steps: []string{small + " -attack leader"}},
	{name: "run-attack-broadcaster", steps: []string{small + " -attack broadcaster -timeline"}},
	{name: "run-attack-smart", steps: []string{small + " -attack smart"}},
	{name: "run-dcs2", steps: []string{small + " -dcs 2"}},
	{name: "run-dcs2-pdes", steps: []string{small + " -dcs 2 -sim-workers 4"}},
	{name: "run-dcs4", steps: []string{small + " -dcs 4 -inter-gbps 1"}},
	{name: "run-seeds", steps: []string{small + " -runs 3 -j 2"}},
	{name: "run-sharded", steps: []string{small + " -shards 4 -cross-shard 0.1"}},
	{name: "run-list-faults", steps: []string{"run -list-faults"}},
	{name: "run-traced",
		steps: []string{
			"run -orgs 4 -rate 400 -duration 300ms -telemetry -anatomy - -anatomy-csv $TMP/a.csv -trace $TMP/t.json -trace-jsonl $TMP/t.jsonl",
			"trace-check $TMP/t.json",
			"trace-check -jsonl $TMP/t.jsonl",
			"report -trace-jsonl $TMP/t.jsonl -out $TMP/r.txt -csv $TMP/r.csv",
			"run -orgs 4 -rate 400 -duration 300ms -anatomy $TMP/a.txt",
		},
		files: []string{"a.csv", "r.csv", "a.txt", "r.txt"}},
	{name: "scenario-chaos-churn", steps: []string{"run -scenario " + examples + "chaos-churn.json"}},
	{name: "scenario-chaos-crash", steps: []string{"run -scenario " + examples + "chaos-crash.json"}},
	{name: "scenario-chaos-crash-overlay", steps: []string{"run -scenario " + examples + "chaos-crash.json -seed 3 -sim-workers 4 -timeline -anatomy -"}},
	{name: "scenario-chaos-dc-outage", steps: []string{"run -scenario " + examples + "chaos-dc-outage.json"}},
	{name: "scenario-chaos-fabric-crash", steps: []string{"run -scenario " + examples + "chaos-fabric-crash.json"}},
	{name: "scenario-chaos-partition", steps: []string{"run -scenario " + examples + "chaos-partition.json"}},
	{name: "scenario-chaos-seq-failover", steps: []string{"run -scenario " + examples + "chaos-seq-failover.json"}},
	{name: "scenario-chaos-storm", steps: []string{"run -scenario " + examples + "chaos-storm.json"}},
	{name: "scenario-sharded", steps: []string{"run -scenario " + examples + "sharded.json"}},
	{name: "scenario-sharded-crossheavy", steps: []string{"run -scenario " + examples + "sharded-crossheavy.json"}},
	{name: "scenario-zipf-contended", steps: []string{"run -scenario " + examples + "zipf-contended.json -runs 2"}},
	{name: "scenario-zipf-million", steps: []string{"run -scenario " + examples + "zipf-million.json"}},
	{name: "bench-ablation", steps: []string{"bench -run ablation -scale 0.05"}},
	{name: "bench-fig5-csv", steps: []string{"bench -run fig5 -scale 0.05 -seed 7 -q -j 2 -sim-workers 4 -csv $TMP/fig5.csv"}, files: []string{"fig5.csv"}},
	{name: "bench-dump-scenarios", steps: []string{"bench -dump-scenarios -run fig5 -scale 0.1"}},
	{name: "report", steps: []string{"report -trace-jsonl " + jsonl}},
	{name: "report-windows", steps: []string{"report -trace-jsonl " + jsonl + " -scenario " + examples + "chaos-crash.json"}},
	{name: "trace-check-jsonl", steps: []string{"trace-check -jsonl " + jsonl}},
	{name: "errors", steps: []string{
		"run -attack bogus",
		"run -runs 2 -telemetry",
		"run -runs 2 -cpuprofile $TMP/cpu.pprof",
		"run -scenario testdata/no-such.json",
		"bench -run no-such-experiment",
		"report",
		"report -trace-jsonl testdata/no-such.jsonl",
		"trace-check",
		"trace-check testdata/run-300ms.jsonl",
	}},
}

// execStep runs one step in-process and returns its stdout and exit code.
func execStep(t *testing.T, args []string) (string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if code != 0 {
		t.Logf("bidl %s: exit %d: %s", strings.Join(args, " "), code, errOut.String())
	}
	return out.String(), code
}

func TestCLIMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~40 small simulations")
	}
	for _, row := range cliMatrix {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir()
			var got bytes.Buffer
			for _, step := range row.steps {
				out, code := execStep(t, strings.Fields(strings.ReplaceAll(step, "$TMP", tmp)))
				fmt.Fprintf(&got, "$ bidl %s\n%s[exit %d]\n", step, strings.ReplaceAll(out, tmp, "$TMP"), code)
			}
			for _, name := range row.files {
				data, err := os.ReadFile(filepath.Join(tmp, name))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "-- $TMP/%s --\n%s", name, data)
			}
			path := filepath.Join("testdata", row.name+".golden")
			if *goldenUpdate {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s diverges from the recorded output:\n--- got ---\n%s\n--- want ---\n%s", row.name, got.Bytes(), want)
			}
		})
	}
}

// TestCLIRejectsIgnoredInput covers command lines the separate binaries
// accepted while ignoring part of them: each now exits 2 and names the input.
func TestCLIRejectsIgnoredInput(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"run -scenario " + examples + "chaos-crash.json -orgs 4", "-orgs is superseded by -scenario"},
		{"run -scenario " + examples + "chaos-crash.json -attack leader", "-attack is superseded by -scenario"},
		{"run -cross-shard 0.1", "cross_shard_ratio 0.1 requires shards > 1"},
		{"run -scenario " + examples + "chaos-crash.json -cross-shard 0.1", "requires shards > 1"},
		{"run -timeline -runs 2", "-timeline"},
		{"simulate", "usage: bidl run|bench|report|trace-check"},
		{"", "usage: bidl run|bench|report|trace-check"},
	} {
		var out, errOut bytes.Buffer
		if code := run(strings.Fields(tc.args), &out, &errOut); code != 2 {
			t.Errorf("bidl %s: exit %d, want 2", tc.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("bidl %s: stdout %q, stderr %q; want only a stderr naming %q", tc.args, out.String(), errOut.String(), tc.want)
		}
	}
}
