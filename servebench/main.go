// Command servebench is the repository's serving benchmark. Each
// workload runs in one process: a database opened with db.Open, served
// by server.New on loopback, loaded and indexed through SQL over the
// wire, then driven by client.Conn connections for a timed window. It
// prints every end-to-end metric by name with its unit, then one JSON
// result line, and exits non-zero if any answer was wrong.
//
// With --trace 1 the same run is followed by a replay of the same
// inputs through each layer's public functions, recorded as spans; the
// JSON line then carries the per-layer metrics derived from them. See
// README.md for the workloads and the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vecstudy/internal/vec"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // dataset scale: 0.02 gives n = 20 000
	out      string
	gitSHA   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the data, the queries and the write stream")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 replays the inputs layer by layer and reports per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 0.02, "dataset scale of the sift1m profile")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "servebench"), "directory for database files and traces")
	fs.StringVar(&cfg.gitSHA, "git-sha", "unknown", "commit being measured, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "servebench: need --trace 0|1 and --seconds > 0")
		return 2
	}
	var ws []workload
	if cfg.workload == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 2
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		rep, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "servebench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout, cfg.trace)
		for _, v := range rep.violations {
			fmt.Fprintf(stderr, "servebench: %s: FAIL %s\n", w.name, v)
		}
		res := rep.result(cfg.trace)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(ws) > 1 {
				name = w.name + "/" + name
			}
			total.Metrics[name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload run. vals holds every metric by name; the
// end-to-end and per-layer names do not overlap.
type report struct {
	workload   string
	meta       map[string]any
	vals       map[string]float64
	attempted  int
	failed     int
	violations []string
}

func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// defs lists the metrics the result line carries: end-to-end untraced,
// per-layer traced.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable block: run metadata, then every
// metric of the run's kind by name, value and unit, the ungated
// end-to-end metrics, and fail_frac.
func (r *report) print(w io.Writer, trace bool) {
	meta, _ := json.Marshal(r.meta)
	fmt.Fprintf(w, "# %s meta %s\n", r.workload, meta)
	list := defs(trace)
	if !trace {
		list = append(append([]metricDef(nil), list...), ungated...)
	}
	for _, d := range list {
		fmt.Fprintf(w, "%s %-26s %14.6g %s\n", r.workload, d.name, r.vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "%s %-26s %14.6g %s\n", r.workload, "fail_frac", r.failFrac(), "ratio")
}

func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *report) result(trace bool) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs(trace) {
		res.Metrics[d.name] = metric{Value: r.vals[d.name], Unit: d.unit}
	}
	return res
}

// runMeta describes the host and build a result was measured on.
func runMeta(cfg config, w workload, n, d int) map[string]any {
	frames := w.poolFrames
	if frames == 0 {
		frames = 16384
	}
	flush := "in-memory page stores, no WAL"
	if w.wal {
		flush = "WAL buffered, flushed only on dirty eviction, checkpoint and close; no per-statement fsync"
	}
	return map[string]any{
		"git_sha":      cfg.gitSHA,
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"kernel":       vec.Default().Name(),
		"seed":         cfg.seed,
		"n":            n,
		"d":            d,
		"pool_frames":  frames,
		"flush_policy": flush,
		"seconds":      cfg.seconds,
		"setups":       setups,
		"trace":        cfg.trace,
		"started":      time.Now().UTC().Format(time.RFC3339),
	}
}
