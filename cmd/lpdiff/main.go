// Command lpdiff compares two observability exports — obs metric
// snapshots (lpsim -obs), bench files (lpbench), or `go test -bench
// -benchmem` text output — and prints per-metric delta and ratio tables.
// With -threshold it becomes a CI perf gate: exit status 1 when any
// matching metric drifts past its allowance, 0 otherwise.
//
// Usage:
//
//	lpdiff old-metrics.json new-metrics.json
//	lpdiff -threshold sim_bytes_per_op+10% BENCH_seed.json new-bench.json
//	lpdiff -threshold "sim_max_heap_bytes+5%,arena.fallbacks+0%" -all a.json b.json
//	lpdiff -threshold allocs_per_op+25% BENCH_streaming.txt fresh.txt
//
// A go-bench text file yields one metric per value/unit column, keyed
// BenchmarkName/sub/benchmark/unit with the GOMAXPROCS suffix stripped
// and / in units rewritten to _per_ (ns/op -> ns_per_op, allocs/op ->
// allocs_per_op), so `allocs_per_op+25%` gates every sub-benchmark's
// allocation count while ignoring machine-dependent wall-clock columns.
//
// A threshold is metric name, then + or -, then a percent allowance:
// name+10% fails when new > old×1.10 (an increase is a regression),
// name-10% fails when new < old×0.90 (a decrease is). The name matches a
// metric exactly or as the last /-separated component of a bench key
// (model/allocator/predictor/metric), so one threshold gates every cell
// of the matrix.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/table"
)

const name = "lpdiff"

func main() {
	var thresholds []threshold
	flag.Func("threshold", "gate spec name+N% or name-N%, comma lists and repeats allowed", func(s string) error {
		ts, err := parseThresholds(s)
		if err != nil {
			return err
		}
		thresholds = append(thresholds, ts...)
		return nil
	})
	all := flag.Bool("all", false, "list unchanged metrics too")
	cliutil.Parse(name,
		"compare two obs snapshots or bench files; gate regressions with -threshold",
		"lpdiff -threshold sim_bytes_per_op+10% BENCH_seed.json new-bench.json")

	if flag.NArg() != 2 {
		cliutil.UsageError(name, "want exactly two files to compare, got %d", flag.NArg())
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldLabel, oldM, err := loadMetrics(oldPath)
	if err != nil {
		cliutil.Fatal(name, err)
	}
	newLabel, newM, err := loadMetrics(newPath)
	if err != nil {
		cliutil.Fatal(name, err)
	}

	d := diff(oldM, newM)
	fmt.Printf("old: %s (%s, %d metrics)\n", oldPath, oldLabel, len(oldM))
	fmt.Printf("new: %s (%s, %d metrics)\n\n", newPath, newLabel, len(newM))
	printDiff(os.Stdout, d, *all)

	violations := checkThresholds(d, thresholds)
	for _, v := range violations {
		fmt.Printf("FAIL %s\n", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	if len(thresholds) > 0 {
		fmt.Printf("all %d threshold(s) hold\n", len(thresholds))
	}
}

// metricDelta is one compared metric.
type metricDelta struct {
	Name     string
	Old, New float64
	InOld    bool
	InNew    bool
}

func (d metricDelta) changed() bool { return !d.InOld || !d.InNew || d.Old != d.New }

// diffSet is the full comparison, name-sorted.
type diffSet []metricDelta

// diff aligns two flattened metric maps by name.
func diff(oldM, newM map[string]float64) diffSet {
	names := make(map[string]bool, len(oldM)+len(newM))
	for k := range oldM {
		names[k] = true
	}
	for k := range newM {
		names[k] = true
	}
	out := make(diffSet, 0, len(names))
	for k := range names {
		ov, inOld := oldM[k]
		nv, inNew := newM[k]
		out = append(out, metricDelta{Name: k, Old: ov, New: nv, InOld: inOld, InNew: inNew})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printDiff renders the comparison: changed metrics (all of them with
// all=true) as a delta/ratio table plus a one-line summary.
func printDiff(w *os.File, d diffSet, all bool) {
	changed, same, onlyOld, onlyNew := 0, 0, 0, 0
	tb := table.New("metric deltas", "Metric", "Old", "New", "Delta", "Ratio")
	for _, m := range d {
		switch {
		case !m.InNew:
			onlyOld++
			continue
		case !m.InOld:
			onlyNew++
			continue
		case m.Old == m.New:
			same++
			if !all {
				continue
			}
		default:
			changed++
		}
		ratio := "-"
		if m.Old != 0 {
			ratio = fmt.Sprintf("%.3f", m.New/m.Old)
		}
		tb.RowStrings(m.Name, formatVal(m.Old), formatVal(m.New),
			formatVal(m.New-m.Old), ratio)
	}
	if changed > 0 || all {
		tb.WriteTo(w)
	}
	if changed == 0 {
		fmt.Fprintf(w, "no metric changed (%d identical)\n", same)
	} else {
		fmt.Fprintf(w, "%d metric(s) changed, %d identical\n", changed, same)
	}
	if onlyOld > 0 || onlyNew > 0 {
		fmt.Fprintf(w, "%d metric(s) only in old, %d only in new\n", onlyOld, onlyNew)
	}
	fmt.Fprintln(w)
}

func formatVal(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// threshold is one gate: fail when the named metric drifts more than
// Pct percent in the regression direction.
type threshold struct {
	Name string
	Pct  float64
	Up   bool // true: an increase is the regression; false: a decrease
}

func (t threshold) String() string {
	sign := "-"
	if t.Up {
		sign = "+"
	}
	return fmt.Sprintf("%s%s%g%%", t.Name, sign, t.Pct)
}

// parseThresholds parses a comma list of name+N% / name-N% specs.
func parseThresholds(spec string) ([]threshold, error) {
	var out []threshold
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.LastIndexAny(part, "+-")
		if i <= 0 {
			return nil, fmt.Errorf("threshold %q: want name+N%% or name-N%%", part)
		}
		pctStr, ok := strings.CutSuffix(part[i+1:], "%")
		if !ok {
			return nil, fmt.Errorf("threshold %q: allowance must end in %%", part)
		}
		// ParseFloat accepts NaN and Inf: allowances no value can exceed.
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil || !(pct >= 0) || math.IsInf(pct, 1) {
			return nil, fmt.Errorf("threshold %q: bad allowance %q", part, pctStr)
		}
		metric := part[:i]
		if strings.ContainsAny(metric, "+%") {
			return nil, fmt.Errorf("threshold %q: malformed metric name %q", part, metric)
		}
		out = append(out, threshold{Name: metric, Pct: pct, Up: part[i] == '+'})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("threshold %q: empty spec", spec)
	}
	return out, nil
}

// matches reports whether a threshold governs a metric: exact name, or
// the final /-separated component of a bench key.
func (t threshold) matches(metric string) bool {
	return metric == t.Name || strings.HasSuffix(metric, "/"+t.Name)
}

// violated reports whether the old→new movement crosses the threshold.
func (t threshold) violated(old, new float64) bool {
	if t.Up {
		if old == 0 {
			// A percent allowance of zero is zero: any appearance of a
			// nonzero value where the baseline had none is a regression.
			return new > 0
		}
		return new > old*(1+t.Pct/100)
	}
	if old == 0 {
		return new < 0
	}
	return new < old*(1-t.Pct/100)
}

// checkThresholds applies every threshold to every metric present in
// both files and describes each violation.
func checkThresholds(d diffSet, ts []threshold) []string {
	var out []string
	for _, t := range ts {
		matched := false
		for _, m := range d {
			if !m.InOld || !m.InNew || !t.matches(m.Name) {
				continue
			}
			matched = true
			if t.violated(m.Old, m.New) {
				out = append(out, fmt.Sprintf("%s: %s went %s -> %s (allowance %s)",
					t, m.Name, formatVal(m.Old), formatVal(m.New), t))
			}
		}
		if !matched {
			out = append(out, fmt.Sprintf("%s: no metric matches (gate is vacuous)", t))
		}
	}
	return out
}

// loadMetrics sniffs a file as a bench JSON file, an obs snapshot, or
// `go test -bench` text output and returns a label plus its flattened
// metrics. The two JSON formats both carry a schema field, so the sniff
// keys on "runs", which only bench files have; anything that is not
// JSON is tried as go-bench text.
func loadMetrics(path string) (string, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var probe struct {
		Runs json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		label, m, berr := parseGoBench(data)
		if berr != nil {
			return "", nil, fmt.Errorf("%s: not JSON and %w", path, berr)
		}
		return label, m, nil
	}
	if probe.Runs != nil {
		bench, err := core.ReadBench(bytes.NewReader(data))
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", path, err)
		}
		return fmt.Sprintf("bench %q scale %g", bench.Label, bench.Scale), bench.Flatten(), nil
	}
	snap, err := obs.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return "", nil, fmt.Errorf("%s is neither a bench file nor an obs snapshot: %w", path, err)
	}
	label := snap.Label
	if label == "" {
		label = "obs snapshot"
	}
	return label, snap.Flatten(), nil
}

// parseGoBench extracts metrics from `go test -bench [-benchmem]` text
// output. Each result line is the benchmark name, an iteration count,
// then value/unit pairs:
//
//	BenchmarkRunSimStreaming/gawk/arena/1x-8  253  4422542 ns/op  69346 B/op  738 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name and / in units
// becomes _per_, giving keys like
// BenchmarkRunSimStreaming/gawk/arena/1x/allocs_per_op that the
// suffix-matching threshold grammar can gate across the whole matrix.
//
// A benchmark that reports both ns/op and an events/op custom metric
// additionally yields a derived ns_per_event = ns_per_op / events_per_op
// key. Per-op wall clock moves whenever a benchmark's batch size does,
// so gating it couples the gate to benchmark structure; per-event cost
// is the number that means "the replay engine got slower" regardless of
// how many events one iteration happens to process.
func parseGoBench(data []byte) (string, map[string]float64, error) {
	metrics := map[string]float64{}
	label := "go-bench text"
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			label = "go-bench " + strings.TrimSpace(pkg)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := strings.ReplaceAll(fields[i+1], "/", "_per_")
			metrics[name+"/"+unit] = v
		}
	}
	if len(metrics) == 0 {
		return "", nil, fmt.Errorf("no go-bench result lines found")
	}
	derived := map[string]float64{}
	for k, ev := range metrics {
		base, ok := strings.CutSuffix(k, "/events_per_op")
		if !ok || ev <= 0 {
			continue
		}
		if ns, ok := metrics[base+"/ns_per_op"]; ok {
			derived[base+"/ns_per_event"] = ns / ev
		}
	}
	for k, v := range derived {
		metrics[k] = v
	}
	return label, metrics, nil
}
