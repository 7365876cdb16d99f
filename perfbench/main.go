// Command perfbench is the repository's benchmark: one command that runs a
// workload against the program, checks every answer against its own
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its output. See README.md.
//
//	go build -o perfbench ./perfbench
//	./perfbench --workload paper-crm1 --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// datasetSeed generates the CRM datasets and every workload's query set.
// Like the paper's CRM1 and CRM2 corpora they are fixed: with the query
// sets drawn per seed, which queries a run happened to get moved its query
// rate by a third and its served I/O by a sixth from seed to seed. --seed
// draws the rest: the order of the queries and requests, the protocol of
// each request, and the writer's operations.
const datasetSeed = 1

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    float64 // dataset and op-count scale; 1 is the documented size
	tmp      string  // directory for the run's files
}

func (c config) scaled(n int) int {
	m := int(math.Round(float64(n) * c.scale))
	if m < 200 {
		m = 200
	}
	return m
}

// paperQueries is the number of queries per selectivity: more than the
// figures' 20, because the cost of a CRM1 query varies tenfold and twenty
// of them leave a run's figures to the luck of the draw.
func (c config) paperQueries() int {
	if c.scale < 1 {
		return 4
	}
	return 64
}

// setupReps is how many times a run sets its workload up; setup_s (and,
// where the build is part of set-up, build_s) is the median.
func (c config) setupReps() int { return 5 }

var workloads = map[string]func(config) (*report, error){
	"paper-crm1":  runPaper,
	"serve-crm2":  runServe,
	"ingest-crm1": runIngest,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "paper-crm1", "paper-crm1 | serve-crm2 | ingest-crm1")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed query phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "dataset and op-count scale (the self-test runs at a tiny scale)")
	fs.StringVar(&cfg.tmp, "tmp", os.TempDir(), "directory for the run's files, removed afterwards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 || cfg.scale <= 0 {
		return fmt.Errorf("--seconds and --scale must be positive")
	}
	cfg.trace = trace == 1
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(out, "perfbench %s seed %d seconds %g trace %d scale %g: nproc %d, GOMAXPROCS %d, %s\n",
		cfg.workload, cfg.seed, seconds, trace, cfg.scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	return emit(out, cfg.workload, cfg.trace, rep)
}
