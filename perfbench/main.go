// Command perfbench is the repository's benchmark: an open-loop stream of
// receiver queries sent over loopback HTTP, through internal/client, to a
// COIN mediator served by System.Handler() and configured as
// cmd/coinserver configures it. See README.md for the workloads and
// metrics.
//
//	perfbench --workload paper-mix|scaled-join|federation|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result as one JSON object. A
// wrong answer makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the command's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers printed with the result but kept out of the
	// JSON line: they are not among the benchmark's declared metrics.
	Info map[string]metric `json:"-"`
}

// finite maps the +Inf of a failed percentile to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *result) info(name string, v float64, unit string) {
	r.Info[name] = metric{Value: finite(v), Unit: unit}
}

// outDir receives the result and span files, relative to the repository
// root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "workload: paper-mix, scaled-join, federation or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test, recorded with the result")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace == 1, *commit, outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, commit, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var wls []workload
	if name == "all" {
		wls = workloads
	} else if w, ok := findWorkload(name); ok {
		wls = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	env := environment(seed, commit)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%v\n", wl.name, seed, seconds, traced)
		var res result
		if traced {
			res, err = traceRun(wl, seed, seconds, root, out)
		} else {
			res, err = measure(wl, seed, seconds, root)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printSummary(wl, res)
		if err := writeResult(out, wl.name, seed, traced, env, res); err != nil {
			return err
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(wls) > 1 {
				k = wl.name + "." + k
			}
			combined.Metrics[k] = m
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !combined.Correct {
		return fmt.Errorf("%d of %d requests failed or were answered wrongly", combined.Failed, combined.Attempted)
	}
	return nil
}

// repoRoot finds the repository root above the working directory: the
// directory holding the golden harness's testdata.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(goldenDir(dir)); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (internal/golden/testdata) above the working directory")
		}
		dir = parent
	}
}

// printSummary prints every metric by name with its unit.
func printSummary(wl workload, res result) {
	fmt.Printf("== %s: attempted=%d failed=%d failed_frac=%g correct=%v\n",
		wl.name, res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	names = names[:0]
	for k := range res.Info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-28s %14.4f %s (not gated)\n", k, res.Info[k].Value, res.Info[k].Unit)
	}
}

// writeResult records the result with the environment that produced it.
func writeResult(dir, name string, seed int64, traced bool, env map[string]any, res result) error {
	mode := "e2e"
	if traced {
		mode = "trace"
	}
	body, err := json.MarshalIndent(map[string]any{"workload": name, "mode": mode, "env": env, "result": res, "not_gated": res.Info}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-%s.json", name, seed, mode)), body, 0o644)
}

// environment describes the machine and build a result came from.
func environment(seed int64, commit string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
