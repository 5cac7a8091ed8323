// Command bidl is the one command-line surface of the BIDL reproduction.
//
//	bidl run                                   # paper setting A, 20k txns/s
//	bidl run -scenario examples/scenario-fig5.json
//	bidl bench -run fig5 -scale 0.25           # regenerate a paper artifact
//	bidl report -trace-jsonl run.jsonl         # latency anatomy, offline
//	bidl trace-check -jsonl run.jsonl          # validate a trace export
//
// `bidl <subcommand> -h` lists a subcommand's flags. Simulator speed and
// memory are measured by the repository benchmark (`make benchmark`,
// benchmark/README.md), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/bidl-framework/bidl"
)

// subcommands maps each name to its entry point; every one returns the
// process exit code (0 ok, 1 the work failed, 2 the command line is wrong).
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run":         runCmd,
	"bench":       benchCmd,
	"report":      reportCmd,
	"trace-check": traceCheckCmd,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: tests drive the whole CLI through it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: bidl run|bench|report|trace-check [flags]   (bidl <subcommand> -h lists them)")
	return 2
}

// cli is what every subcommand starts from: its flag set and its streams.
type cli struct {
	*flag.FlagSet
	stdout, stderr io.Writer
}

func newCLI(sub string, stdout, stderr io.Writer) cli {
	fs := flag.NewFlagSet("bidl "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return cli{fs, stdout, stderr}
}

// parse parses args; when ok is false the subcommand returns code.
func (c cli) parse(args []string) (code int, ok bool) {
	switch err := c.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	}
	return 2, false
}

// fail reports err under the subcommand's name and returns code.
func (c cli) fail(code int, err error) int {
	fmt.Fprintf(c.stderr, "%s: %v\n", c.Name(), err)
	return code
}

// simFlags are the flags `run` and `bench` share: both turn scenarios into
// simulations.
type simFlags struct {
	seed       *int64
	jobs       *int
	simWorkers *int
	shards     *int
	listFaults *bool
	cpuProf    *string
	memProf    *string
}

func (c cli) simFlags(defaultJobs int, jobsUsage string) simFlags {
	return simFlags{
		seed:       c.Int64("seed", 1, "simulation seed (run: the first of -runs consecutive seeds)"),
		jobs:       c.Int("j", defaultJobs, jobsUsage),
		simWorkers: c.Int("sim-workers", 0, "PDES workers inside each simulation (0/1 = serial engine; output is identical)"),
		shards:     c.Int("shards", 0, "shard every BIDL deployment that sets no `shards` of its own into this many channels (0/1 = single channel)"),
		listFaults: c.Bool("list-faults", false, "list the fault kinds a scenario's faults array accepts and exit"),
		cpuProf:    c.String("cpuprofile", "", "write a CPU profile of the run to this file (run: single run only)"),
		memProf:    c.String("memprofile", "", "write an allocation profile taken at exit to this file (run: single run only)"),
	}
}

// profile starts the -cpuprofile CPU profile and returns what the subcommand
// defers: it stops that profile and writes the -memprofile allocation profile.
func (c cli) profile(sim simFlags) (stop func(), err error) {
	var cpu *os.File
	if *sim.cpuProf != "" {
		if cpu, err = os.Create(*sim.cpuProf); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				c.fail(1, err)
			}
		}
		if *sim.memProf != "" {
			runtime.GC() // materialize up-to-date allocation stats
			err := writeFile(*sim.memProf, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
			if err != nil {
				c.fail(1, err)
			}
		}
	}, nil
}

// printFaultKinds is the -list-faults output.
func printFaultKinds(w io.Writer) {
	fmt.Fprintln(w, "fault kinds (scenario `faults` array, see DESIGN.md §11):")
	for _, k := range bidl.FaultKinds() {
		fmt.Fprintf(w, "  %-12s %s\n", k.Name, k.Summary)
	}
}

// loadScenario reads, strict-parses and validates a scenario file.
func loadScenario(path string) (bidl.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bidl.Scenario{}, err
	}
	spec, err := bidl.ParseScenario(data)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return bidl.Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// writeFile streams one export (trace, anatomy, CSV, profile) into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
