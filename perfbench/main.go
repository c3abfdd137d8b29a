// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the serve pipeline (rootserve driven over loopback)
// or the campaign/replay pipeline (the study as rootmeasure records it and
// rootanalyze replays it), checks every output, and prints each metric
// declared in BENCHMARK.json by name and unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload serve-junk|serve-hot|study -seed N -seconds S -trace 0|1
//
// With -trace 0 the last line of standard output is one JSON object with the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics, and the
// lines before it give the tracing overhead against an untraced pass of the
// same run. See perfbench/README.md for the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects one invocation's metrics, outcome counts and report notes.
type run struct {
	res   result
	notes []string
}

func newRun() *run {
	return &run{res: result{Metrics: map[string]metric{}}}
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note adds one line to the human-readable report printed before the result.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally adds one pass's outcome counts.
func (r *run) tally(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// options are the command-line inputs shared by every workload.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	smoke     bool // tiny sizes, for the benchmark's own smoke test
	root      string
	rootserve string
}

func main() {
	// rootserve is started from this goroutine with a parent-death signal,
	// which the kernel sends when the starting thread exits; pinning main to
	// its thread keeps the open loop's short-lived locked threads from ever
	// being that thread.
	runtime.LockOSThread()
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: serve-junk, serve-hot or study")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout holding BENCHMARK.json")
	flag.StringVar(&o.rootserve, "rootserve", "", "rootserve binary built from the checkout")
	flag.Parse()
	o.trace = traceFlag == 1

	// An interrupted run stops the servers it started before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		running.stopAll()
		os.Exit(2)
	}()

	r, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := finish(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !r.res.Correct {
		os.Exit(1)
	}
}

// execute dispatches to the workload and stamps the machine shape.
func execute(o options) (*run, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	r := newRun()
	r.note("machine: %s", machineShape(o.root))
	switch o.workload {
	case "serve-junk", "serve-hot":
		if o.rootserve == "" {
			return nil, errors.New("-rootserve is required for serve workloads")
		}
		if err := serveWorkload(o, r); err != nil {
			return nil, err
		}
	case "study":
		if err := studyWorkload(o, r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	r.note("fail_frac: %d failed / %d attempted", r.res.Failed, r.res.Attempted)
	return r, nil
}

// finish checks the metric set against BENCHMARK.json, saves the full report
// under .bench_build and prints the notes followed by the result line.
func finish(o options, r *run) error {
	if err := checkDeclared(filepath.Join(o.root, "BENCHMARK.json"), o.trace, r.res.Metrics); err != nil {
		return err
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.root, ".bench_build", "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	report, err := json.MarshalIndent(map[string]any{"notes": r.notes, "result": r.res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(dir, name), report, 0o644); err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	fmt.Println(string(line))
	return nil
}

// declared is the subset of BENCHMARK.json the benchmark checks itself
// against.
type declared struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// checkDeclared fails unless got holds exactly the metrics BENCHMARK.json
// declares for this mode, each with its declared unit and a finite value.
func checkDeclared(path string, trace bool, got map[string]metric) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := map[string]string{}
	list := d.EndToEnd
	if trace {
		list = d.PerLayer
	}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	var problems []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			problems = append(problems, name+" missing")
		case m.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, declared %q", name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, name+" not finite")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			problems = append(problems, name+" not declared")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with %s: %v", path, problems)
	}
	return nil
}

// since returns seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
