package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (format 0.0.4) for the metrics registry, so the
// runtime lock can be scraped by a stock Prometheus/VictoriaMetrics agent
// without adding a client-library dependency.
//
// Mapping:
//
//   - every metric is prefixed "rwrnlp_" and sanitized to the Prometheus
//     name charset;
//   - the registry's shard-labeled names ("shard_acquires{shard=3}") become
//     proper labels: rwrnlp_shard_acquires{shard="3"};
//   - counters and gauges map 1:1;
//   - histograms expose cumulative _bucket series over the registry's
//     log-linear (HDR-style) bucket bounds — 16 equal-width sub-buckets per
//     power of two, see metrics.go — of which only the non-empty ones are
//     materialized, plus +Inf, with _sum and _count.

// PrometheusContentType is the Content-Type of the 0.0.4 text format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName splits a registry name into a sanitized Prometheus metric name
// and a label string ("" or `{shard="3"}`).
func promName(name string) (metric, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		raw := strings.TrimSuffix(name[i+1:], "}")
		name = name[:i]
		if k, v, ok := strings.Cut(raw, "="); ok {
			labels = fmt.Sprintf("{%s=%q}", sanitizePromName(k), v)
		}
	}
	return "rwrnlp_" + sanitizePromName(name), labels
}

func sanitizePromName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeries groups all labeled series of one Prometheus metric so the
// # TYPE header is emitted once per metric.
type promSeries struct {
	metric string
	kind   string // "counter" | "gauge" | "histogram"
	lines  []string
}

// WritePrometheus renders the snapshot in Prometheus text format 0.0.4.
// Output is deterministic: metrics and their labeled series are sorted.
func WritePrometheus(w io.Writer, s Snapshot) error {
	byMetric := map[string]*promSeries{}
	add := func(metric, kind, line string) {
		ps := byMetric[metric]
		if ps == nil {
			ps = &promSeries{metric: metric, kind: kind}
			byMetric[metric] = ps
		}
		ps.lines = append(ps.lines, line)
	}
	var counterNames, gaugeNames, histNames []string
	for n := range s.Counters {
		counterNames = append(counterNames, n)
	}
	for n := range s.Gauges {
		gaugeNames = append(gaugeNames, n)
	}
	for n := range s.Hists {
		histNames = append(histNames, n)
	}
	sort.Strings(counterNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)

	for _, name := range counterNames {
		metric, labels := promName(name)
		add(metric, "counter", fmt.Sprintf("%s%s %d", metric, labels, s.Counters[name]))
	}
	for _, name := range gaugeNames {
		metric, labels := promName(name)
		add(metric, "gauge", fmt.Sprintf("%s%s %d", metric, labels, s.Gauges[name]))
	}
	for _, name := range histNames {
		h := s.Hists[name]
		metric, labels := promName(name)
		// Merge the shard label (if any) with the le label.
		le := func(bound string) string {
			if labels == "" {
				return fmt.Sprintf("{le=%q}", bound)
			}
			return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", bound)
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.N
			add(metric, "histogram",
				fmt.Sprintf("%s_bucket%s %d", metric, le(fmt.Sprint(b.Le)), cum))
		}
		add(metric, "histogram", fmt.Sprintf("%s_bucket%s %d", metric, le("+Inf"), h.Count))
		add(metric, "histogram", fmt.Sprintf("%s_sum%s %d", metric, labels, h.Sum))
		add(metric, "histogram", fmt.Sprintf("%s_count%s %d", metric, labels, h.Count))
	}

	metrics := make([]string, 0, len(byMetric))
	for m := range byMetric {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		ps := byMetric[m]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ps.metric, ps.kind); err != nil {
			return err
		}
		// Lines keep insertion order: sorted registry names, and within one
		// histogram series the cumulative buckets in increasing le order.
		for _, line := range ps.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
