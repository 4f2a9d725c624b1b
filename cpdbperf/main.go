// Command cpdbperf is the CPDB benchmark. It runs one workload against the
// system through the public cpdb API as one closed-loop client, checks the
// answers, and prints the end-to-end metrics; with -trace 1 it instead
// runs the workload twice — plain, then with timing decorators at each
// layer boundary — and prints the per-layer metrics. See README.md.
//
//	cpdbperf -workload query -seed 1 -seconds 10 -trace 0 -cpdbd bin/cpdbd -dir tmp
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is 0 only when every operation succeeded and every check
// passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// A metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A report is the command's result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// details are further measurements printed above the JSON line: the
	// metrics only some workloads or sample sizes support, and notes.
	details []string
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	cpdbd    string
	dir      string
	spans    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: curate, query, remote or durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long the timed run measures (a traced run sizes its fixed step count by it)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "self-check mode: small preload, few set-ups")
	flag.StringVar(&cfg.cpdbd, "cpdbd", "", "the cpdbd binary (remote workload)")
	flag.StringVar(&cfg.dir, "dir", "", "directory for store files and daemon logs (required)")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the traced pass's spans to this file as JSON lines")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.dir == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "cpdbperf: need -dir, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpdbperf:", err)
		os.Exit(1)
	}
	for _, d := range rep.details {
		fmt.Println("#", d)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("# %-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpdbperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

func run(cfg config) (*report, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.quick {
		sp = sp.quick()
	}
	e := &env{sp: sp, in: genInputs(), dir: cfg.dir, cpdbd: cfg.cpdbd}
	if cfg.trace {
		return tracedRun(e, cfg)
	}
	return timedRun(e, cfg)
}
