package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// OpenMetrics text exposition (version 1.0.0) for the metrics registry, so
// the runtime lock can be scraped by a stock Prometheus/VictoriaMetrics agent
// without adding a client-library dependency. Scrape via the metrics endpoint
// with ?format=openmetrics.
//
// Mapping:
//
//   - every metric is prefixed "rwrnlp_" and sanitized to the Prometheus
//     name charset;
//   - the registry's shard-labeled names ("shard_acquires{shard=3}") become
//     proper labels: rwrnlp_shard_acquires{shard="3"};
//   - counters carry the _total suffix and a _created series; gauges map 1:1;
//   - histograms expose cumulative _bucket series over the registry's
//     log-linear (HDR-style) bucket bounds — 16 equal-width sub-buckets per
//     power of two, see metrics.go — of which only the non-empty ones are
//     materialized, plus +Inf, with _sum, _count and _created; tail buckets
//     carry exemplars in `# {labels} value` syntax;
//   - the body ends with `# EOF`.
//
// Exemplars come from Histogram.ObserveTagged: each carries the request ID
// and the flight-recorder sequence current when the sample was recorded, so
// `flightdump -seq N` resolves a scraped tail sample into its blocking chain.

// OpenMetricsContentType is the Content-Type of the OpenMetrics text format.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

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

// promSeries groups all labeled series of one metric so the # TYPE header is
// emitted once per metric.
type promSeries struct {
	metric string
	kind   string // "counter" | "gauge" | "histogram"
	lines  []string
}

// omCreated renders a _created value: unix seconds with millisecond precision.
func omCreated(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1e9, (ns%1e9)/1e6)
}

// omExemplar renders the OpenMetrics exemplar suffix for a bucket line.
func omExemplar(ex Exemplar) string {
	var lb strings.Builder
	fmt.Fprintf(&lb, "req=\"%d\"", ex.Req)
	if ex.Seq != 0 {
		fmt.Fprintf(&lb, ",flight_seq=\"%d\"", ex.Seq)
	}
	if ex.Trace != "" {
		fmt.Fprintf(&lb, ",trace_id=%q", ex.Trace)
	}
	return fmt.Sprintf(" # {%s} %d", lb.String(), ex.Value)
}

// WriteOpenMetrics renders the snapshot in OpenMetrics text format 1.0.0.
// Output is deterministic: metrics and their labeled series are sorted, and
// _created values come from the registry clock (swappable via SetClock).
func WriteOpenMetrics(w io.Writer, s Snapshot) error {
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
		add(metric, "counter", fmt.Sprintf("%s_total%s %d", metric, labels, s.Counters[name]))
		if t, ok := s.Created[name]; ok {
			add(metric, "counter", fmt.Sprintf("%s_created%s %s", metric, labels, omCreated(t)))
		}
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
		// An exemplar attaches to the first bucket line whose range covers
		// its value; each exemplar is emitted at most once.
		exemplars := append([]Exemplar(nil), h.Exemplars...)
		exFor := func(prevLe, curLe int64) string {
			for i, ex := range exemplars {
				if ex.Value > prevLe && ex.Value <= curLe {
					exemplars = append(exemplars[:i], exemplars[i+1:]...)
					return omExemplar(ex)
				}
			}
			return ""
		}
		var cum int64
		prevLe := int64(-1)
		for _, b := range h.Buckets {
			cum += b.N
			add(metric, "histogram", fmt.Sprintf("%s_bucket%s %d%s",
				metric, le(fmt.Sprint(b.Le)), cum, exFor(prevLe, b.Le)))
			prevLe = b.Le
		}
		add(metric, "histogram", fmt.Sprintf("%s_bucket%s %d%s",
			metric, le("+Inf"), h.Count, exFor(prevLe, minSentinel)))
		add(metric, "histogram", fmt.Sprintf("%s_sum%s %d", metric, labels, h.Sum))
		add(metric, "histogram", fmt.Sprintf("%s_count%s %d", metric, labels, h.Count))
		if t, ok := s.Created[name]; ok {
			add(metric, "histogram", fmt.Sprintf("%s_created%s %s", metric, labels, omCreated(t)))
		}
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
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
