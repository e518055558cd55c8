package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition of a Registry.
//
// Registry names are dotted paths ("shard0.qdelay.ingress"). The writer
// turns path components that look like topology coordinates (shard0,
// node2, group1) into labels, and — for distributions only — the last
// remaining component into a stage label, so per-shard series of the
// same stage merge into one metric family:
//
//	shard0.qdelay.ingress  →  hovercraft_qdelay_…{shard="0",stage="ingress"}
//	shard0.net.rx_datagrams → hovercraft_net_rx_datagrams_total{shard="0"}
//
// Output is fully sorted: families alphabetically, series within a
// family lexicographically — a fixed registry state renders to fixed
// bytes, which the golden scrape tests rely on.

// promFamilyPrefix namespaces every exported metric.
const promFamilyPrefix = "hovercraft_"

var promLabelComp = regexp.MustCompile(`^(shard|node|group|core)([0-9]+)$`)

var promSanitize = regexp.MustCompile(`[^a-zA-Z0-9_]`)

// promSplit decomposes a dotted registry name into a metric family stem
// and a rendered label list. dist extracts the trailing component as a
// stage label (distributions share a family across stages).
func promSplit(dotted string, dist bool) (fam, labels string) {
	parts := strings.Split(dotted, ".")
	kept := parts[:0]
	var lbl []string
	for _, p := range parts {
		if m := promLabelComp.FindStringSubmatch(p); m != nil {
			lbl = append(lbl, m[1]+`="`+m[2]+`"`)
			continue
		}
		kept = append(kept, p)
	}
	if dist && len(kept) > 1 {
		lbl = append(lbl, `stage="`+kept[len(kept)-1]+`"`)
		kept = kept[:len(kept)-1]
	}
	sort.Strings(lbl)
	fam = promSanitize.ReplaceAllString(strings.Join(kept, "_"), "_")
	return fam, strings.Join(lbl, ",")
}

// promDoc accumulates families before the sorted render.
type promDoc struct {
	typ  map[string]string   // family → counter|gauge|summary
	help map[string]string   // family → # HELP text (described counters only)
	rows map[string][]string // family → rendered sample lines
}

func newPromDoc() *promDoc {
	return &promDoc{typ: map[string]string{}, help: map[string]string{}, rows: map[string][]string{}}
}

func (d *promDoc) add(family, typ, labels, value string) {
	if _, ok := d.typ[family]; !ok {
		d.typ[family] = typ
	}
	line := family
	if labels != "" {
		line += "{" + labels + "}"
	}
	d.rows[family] = append(d.rows[family], line+" "+value)
}

func promUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func promInt(v int64) string     { return strconv.FormatInt(v, 10) }
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// joinLabels merges extra label pairs into an already-sorted label list
// (extras render after the topology labels; order is fixed either way).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	if extra == "" {
		return labels
	}
	return labels + "," + extra
}

// WritePrometheus renders every registered source in Prometheus text
// exposition format (version 0.0.4), deterministically sorted.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		return bw.Flush()
	}
	csrc, gsrc, hsrc, wsrc, ssrc := r.collect()

	doc := newPromDoc()

	counters := make(map[string]uint64, len(csrc))
	for name, f := range csrc {
		counters[name] = f()
	}
	for prefix, cs := range ssrc {
		for _, name := range cs.Names() {
			counters[prefix+"."+name] = cs.Value(name)
			if h := cs.Help(name); h != "" {
				fam, _ := promSplit(prefix+"."+name, false)
				doc.help[promFamilyPrefix+fam+"_total"] = h
			}
		}
	}
	for name, v := range counters {
		fam, labels := promSplit(name, false)
		doc.add(promFamilyPrefix+fam+"_total", "counter", labels, promUint(v))
	}

	for name, f := range gsrc {
		fam, labels := promSplit(name, false)
		doc.add(promFamilyPrefix+fam, "gauge", labels, promFloat(f()))
	}

	for name, h := range hsrc {
		fam, labels := promSplit(name, true)
		base := promFamilyPrefix + fam + "_ns"
		s := h.Summary()
		doc.add(base, "summary", joinLabels(labels, `quantile="0.5"`), promInt(int64(s.P50)))
		doc.add(base, "summary", joinLabels(labels, `quantile="0.99"`), promInt(int64(s.P99)))
		doc.add(base, "summary", joinLabels(labels, `quantile="0.999"`), promInt(int64(s.P999)))
		doc.add(base+"_sum", "counter", labels, promInt(h.Sum()))
		doc.add(base+"_count", "counter", labels, promUint(s.Count))
	}

	for name, wh := range wsrc {
		fam, labels := promSplit(name, true)
		base := promFamilyPrefix + fam
		// Cumulative summary from the never-reset total — unless a plain
		// histogram already owns this dotted name (obs segments register
		// both; the exact-resolution histogram wins).
		if _, dup := hsrc[name]; !dup {
			t := wh.Total()
			doc.add(base+"_ns", "summary", joinLabels(labels, `quantile="0.5"`), promInt(int64(t.P50)))
			doc.add(base+"_ns", "summary", joinLabels(labels, `quantile="0.99"`), promInt(int64(t.P99)))
			doc.add(base+"_ns", "summary", joinLabels(labels, `quantile="0.999"`), promInt(int64(t.P999)))
			doc.add(base+"_ns_sum", "counter", labels, promInt(wh.TotalSum()))
			doc.add(base+"_ns_count", "counter", labels, promUint(wh.TotalCount()))
		}
		s := wh.Window()
		doc.add(base+"_window_count", "gauge", labels, promUint(s.Count))
		doc.add(base+"_window_p50_ns", "gauge", labels, promInt(int64(s.P50)))
		doc.add(base+"_window_p99_ns", "gauge", labels, promInt(int64(s.P99)))
		doc.add(base+"_window_p999_ns", "gauge", labels, promInt(int64(s.P999)))
		doc.add(base+"_window_max_ns", "gauge", labels, promInt(int64(s.Max)))
		doc.add(base+"_window_above", "gauge", labels, promUint(s.Above))
		doc.add(base+"_slo_threshold_ns", "gauge", labels, promInt(int64(s.Threshold)))
		doc.add(base+"_slo_burn", "gauge", labels, promFloat(s.Burn))
	}

	fams := make([]string, 0, len(doc.rows))
	for fam := range doc.rows {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		if h := doc.help[fam]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, h)
		}
		// _sum/_count companions of a summary share its TYPE line.
		if t := doc.typ[fam]; !(t == "counter" && (strings.HasSuffix(fam, "_sum") || strings.HasSuffix(fam, "_count")) && doc.typ[strings.TrimSuffix(strings.TrimSuffix(fam, "_sum"), "_count")] == "summary") {
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, t)
		}
		rows := doc.rows[fam]
		sort.Strings(rows)
		for _, row := range rows {
			bw.WriteString(row)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// PromHandler serves WritePrometheus over HTTP — the /metrics endpoint.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
}
