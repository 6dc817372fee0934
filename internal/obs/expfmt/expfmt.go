// Package expfmt renders obs snapshots in the Prometheus text exposition
// format (version 0.0.4) and parses that format back, so cmd/lpserve can
// expose live collectors to any scraper and tests can assert exact
// round-trips. Every metric is prefixed lp_, dots in obs names become
// underscores, and the snapshot's program/allocator tag each sample as
// labels.
//
// The mapping:
//
//   - the bytes-allocated clock  → lp_clock_bytes (counter)
//   - counters                   → lp_<name> (counter)
//   - gauges                     → lp_<name> (gauge) and lp_<name>_max (gauge)
//   - histograms                 → lp_<name> (histogram) with cumulative
//     le buckets from the obs bucket upper bounds, plus _sum and _count
//   - exact event totals         → lp_events_total{kind="..."} (counter)
//   - dropped raw events         → lp_obs_dropped_events (counter)
//   - per-site mispredictions    → lp_pred_site_fp_bytes,
//     lp_pred_site_fp_cost_bytelife, lp_pred_site_fn_bytes, each with a
//     site="..." label per attributed call-chain
//   - address-space heatmap      → lp_heap_heatmap_bins / _rows (always
//     present when the heap scanner ran, even with zero rows) plus
//     lp_heap_heatmap_extent_bytes and
//     lp_heap_heatmap_live_bytes{bin="..."} from the freshest row
//
// Rendering is canonical — families sorted by name, label keys sorted,
// shortest float formatting — so Write → Parse → WriteFamilies reproduces
// the input byte for byte. That property is what lets lpserve's /metrics
// be verified exactly mid-replay.
package expfmt

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Metric is one sample line: an optional family suffix (histograms emit
// _bucket/_sum/_count under their family name), its labels, and a value.
type Metric struct {
	Suffix string // "", "_bucket", "_sum", "_count"
	Labels map[string]string
	Value  float64
}

// Family is one exposition family: a # HELP line, a # TYPE line, and the
// family's samples in order.
type Family struct {
	Name    string // full exposition name, e.g. "lp_firstfit_search_len"
	Type    string // "counter", "gauge", or "histogram"
	Help    string
	Metrics []Metric
}

// MetricName converts an obs metric name to its exposition name:
// lp_ prefix, every character outside [a-zA-Z0-9_] replaced with _.
func MetricName(name string) string {
	var b strings.Builder
	b.WriteString("lp_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// baseLabels builds the label set shared by every sample of a snapshot.
func baseLabels(s *obs.Snapshot, extra map[string]string) map[string]string {
	labels := make(map[string]string, 2+len(extra))
	if s.Program != "" {
		labels["program"] = s.Program
	}
	if s.Allocator != "" {
		labels["allocator"] = s.Allocator
	}
	for k, v := range extra {
		labels[k] = v
	}
	return labels
}

// withLabel copies a label set and adds one more pair.
func withLabel(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// Families converts a snapshot into exposition families, sorted by name.
// The extra labels (e.g. a job id) are attached to every sample on top of
// the snapshot's program/allocator.
func Families(s *obs.Snapshot, extra map[string]string) []Family {
	if s == nil {
		return nil
	}
	labels := baseLabels(s, extra)
	fams := make([]Family, 0, 2+len(s.Counters)+2*len(s.Gauges)+len(s.Histograms))

	fams = append(fams, Family{
		Name: "lp_clock_bytes", Type: "counter",
		Help:    "bytes allocated so far (the paper's clock)",
		Metrics: []Metric{{Labels: labels, Value: float64(s.Clock)}},
	})

	for name, v := range s.Counters {
		fams = append(fams, Family{
			Name: MetricName(name), Type: "counter",
			Help:    "obs counter " + name,
			Metrics: []Metric{{Labels: labels, Value: float64(v)}},
		})
	}
	for name, g := range s.Gauges {
		fams = append(fams,
			Family{
				Name: MetricName(name), Type: "gauge",
				Help:    "obs gauge " + name,
				Metrics: []Metric{{Labels: labels, Value: float64(g.Value)}},
			},
			Family{
				Name: MetricName(name) + "_max", Type: "gauge",
				Help:    "obs gauge " + name + " high-water mark",
				Metrics: []Metric{{Labels: labels, Value: float64(g.Max)}},
			})
	}
	for name, h := range s.Histograms {
		fams = append(fams, histogramFamily(name, h, labels))
	}
	for name, t := range s.Timings {
		// Wall-clock timings render as a summary-style trio; they are the
		// one machine-dependent family, so scrapers should treat them as
		// operational telemetry, not reproduction results.
		fams = append(fams,
			Family{
				Name: MetricName(name) + "_count", Type: "counter",
				Help:    "obs timing " + name + " observation count",
				Metrics: []Metric{{Labels: labels, Value: float64(t.Count)}},
			},
			Family{
				Name: MetricName(name) + "_sum_us", Type: "counter",
				Help:    "obs timing " + name + " total wall-clock microseconds",
				Metrics: []Metric{{Labels: labels, Value: float64(t.SumMicros)}},
			},
			Family{
				Name: MetricName(name) + "_max_us", Type: "gauge",
				Help:    "obs timing " + name + " largest single observation (us)",
				Metrics: []Metric{{Labels: labels, Value: float64(t.MaxMicros)}},
			})
	}
	if len(s.Events.Counts) > 0 {
		kinds := make([]string, 0, len(s.Events.Counts))
		for k := range s.Events.Counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		ms := make([]Metric, 0, len(kinds))
		for _, k := range kinds {
			ms = append(ms, Metric{
				Labels: withLabel(labels, "kind", k),
				Value:  float64(s.Events.Counts[k]),
			})
		}
		fams = append(fams, Family{
			Name: "lp_events_total", Type: "counter",
			Help: "exact structured replay event totals by kind", Metrics: ms,
		})
	}
	// Sink overflow is exposed unconditionally so scrapers can alert on a
	// truncated raw-event window instead of discovering it by omission.
	fams = append(fams, Family{
		Name: "lp_obs_dropped_events", Type: "counter",
		Help:    "raw events dropped from the collector's bounded event window",
		Metrics: []Metric{{Labels: labels, Value: float64(s.Events.Dropped)}},
	})
	if s.Heatmap != nil {
		// The heatmap families render whenever the scanner ran — zero rows
		// expose as zeros, not absence, matching the dropped-events
		// convention. The per-bin family carries the freshest row so a live
		// scrape shows the current address-space occupancy profile.
		fams = append(fams,
			Family{
				Name: "lp_heap_heatmap_bins", Type: "gauge",
				Help:    "address-space heatmap column count",
				Metrics: []Metric{{Labels: labels, Value: float64(s.Heatmap.Bins)}},
			},
			Family{
				Name: "lp_heap_heatmap_rows", Type: "counter",
				Help:    "address-space heatmap rows recorded so far",
				Metrics: []Metric{{Labels: labels, Value: float64(len(s.Heatmap.Rows))}},
			})
		if n := len(s.Heatmap.Rows); n > 0 {
			last := s.Heatmap.Rows[n-1]
			ms := make([]Metric, 0, len(last.Cells))
			for i, c := range last.Cells {
				ms = append(ms, Metric{
					Labels: withLabel(labels, "bin", strconv.Itoa(i)),
					Value:  float64(c),
				})
			}
			fams = append(fams,
				Family{
					Name: "lp_heap_heatmap_extent_bytes", Type: "gauge",
					Help:    "packed address-space bytes the latest heatmap row covers",
					Metrics: []Metric{{Labels: labels, Value: float64(last.Extent)}},
				},
				Family{
					Name: "lp_heap_heatmap_live_bytes", Type: "gauge",
					Help:    "live-block bytes per address-space bin in the latest heatmap row",
					Metrics: ms,
				})
		}
	}
	if len(s.PredSites) > 0 {
		fp := make([]Metric, 0, len(s.PredSites))
		cost := make([]Metric, 0, len(s.PredSites))
		fn := make([]Metric, 0, len(s.PredSites))
		for _, ps := range s.PredSites {
			l := withLabel(labels, "site", ps.Site)
			fp = append(fp, Metric{Labels: l, Value: float64(ps.FPBytes)})
			cost = append(cost, Metric{Labels: l, Value: float64(ps.FPCost)})
			fn = append(fn, Metric{Labels: l, Value: float64(ps.FNBytes)})
		}
		fams = append(fams,
			Family{
				Name: "lp_pred_site_fp_bytes", Type: "counter",
				Help:    "bytes mispredicted short (lived long) by allocation site",
				Metrics: fp,
			},
			Family{
				Name: "lp_pred_site_fp_cost_bytelife", Type: "counter",
				Help:    "false-positive byte-lifetime cost (size x lifetime past threshold) by allocation site",
				Metrics: cost,
			},
			Family{
				Name: "lp_pred_site_fn_bytes", Type: "counter",
				Help:    "bytes mispredicted long (died short) by allocation site",
				Metrics: fn,
			})
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// histogramFamily renders an obs histogram as a Prometheus histogram:
// cumulative le buckets at each obs bucket's inclusive upper bound
// (values are integral, so le = hi is exact), a +Inf bucket absorbing the
// overflow, then _sum and _count. Empty buckets are skipped — the
// cumulative counts make them redundant.
func histogramFamily(name string, h obs.HistogramSnapshot, labels map[string]string) Family {
	ms := make([]Metric, 0, len(h.Counts)+3)
	cum := int64(0)
	for i, c := range h.Counts {
		cum += c
		if c == 0 {
			continue
		}
		_, hi := h.BucketBounds(i)
		ms = append(ms, Metric{
			Suffix: "_bucket",
			Labels: withLabel(labels, "le", strconv.FormatInt(hi, 10)),
			Value:  float64(cum),
		})
	}
	// A snapshot's Count is its bucket sum plus overflow, so +Inf and
	// _count are the same number, as the format requires.
	inf := cum + h.Overflow
	ms = append(ms,
		Metric{Suffix: "_bucket", Labels: withLabel(labels, "le", "+Inf"), Value: float64(inf)},
		Metric{Suffix: "_sum", Labels: labels, Value: float64(h.Sum)},
		Metric{Suffix: "_count", Labels: labels, Value: float64(inf)},
	)
	return Family{
		Name: MetricName(name), Type: "histogram",
		Help:    "obs histogram " + name + " (" + h.Kind + " buckets)",
		Metrics: ms,
	}
}

// Gather merges several family sets (e.g. one per lpserve job) into one:
// families with the same name are concatenated in input order under the
// first occurrence's type and help, and the result is sorted by name.
// Merging a counter family into a gauge family (or any type mismatch) is
// an error — it would produce an exposition scrape rejects.
func Gather(sets ...[]Family) ([]Family, error) {
	byName := make(map[string]*Family)
	order := make([]string, 0)
	for _, set := range sets {
		for _, f := range set {
			got, ok := byName[f.Name]
			if !ok {
				cp := f
				cp.Metrics = append([]Metric(nil), f.Metrics...)
				byName[f.Name] = &cp
				order = append(order, f.Name)
				continue
			}
			if got.Type != f.Type {
				return nil, fmt.Errorf("expfmt: family %s gathered as both %s and %s", f.Name, got.Type, f.Type)
			}
			got.Metrics = append(got.Metrics, f.Metrics...)
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}

// formatValue renders a sample value in the canonical (shortest
// round-trippable) form.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WriteFamilies renders families in the given order, each as # HELP,
// # TYPE, then its samples with label keys sorted.
func WriteFamilies(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, m := range f.Metrics {
			b.WriteString(f.Name)
			b.WriteString(m.Suffix)
			if len(m.Labels) > 0 {
				keys := make([]string, 0, len(m.Labels))
				for k := range m.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				b.WriteByte('{')
				for i, k := range keys {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(m.Labels[k]))
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(m.Value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Write renders one snapshot in the exposition format.
func Write(w io.Writer, s *obs.Snapshot) error {
	if s == nil {
		return fmt.Errorf("expfmt: nil snapshot")
	}
	return WriteFamilies(w, Families(s, nil))
}
