package httpapi

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"e3/internal/metrics"
)

// expo writes the Prometheus text exposition format (version 0.0.4) that
// /metrics serves. It is the one place the format is spelled out: a
// family's header, sample lines with escaped label values, and a
// histogram's cumulative series. Callers write each family's header
// before its samples and never interleave two families.
type expo struct{ w io.Writer }

// family writes a family's # HELP and # TYPE lines; typ is counter,
// gauge or histogram.
func (e expo) family(name, typ, help string) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// one writes a family holding a single unlabeled sample.
func (e expo) one(name, typ, help string, v any) {
	e.family(name, typ, help)
	e.sample(name, v)
}

// sample writes one sample line. v is an integer (rendered %d), a float64
// (%g) or a bool (1 or 0). labels alternate label names and values; the
// values are escaped.
func (e expo) sample(name string, v any, labels ...string) {
	if b, ok := v.(bool); ok {
		v = 0
		if b {
			v = 1
		}
	}
	fmt.Fprintf(e.w, "%s%s %v\n", name, labelSet(labels), v)
}

// histogram writes h's cumulative _bucket series (each finite bound in
// its shortest exact form, then le="+Inf"), its _sum and its _count, all
// carrying labels. The family header is the caller's.
func (e expo) histogram(name string, h *metrics.Histogram, labels ...string) {
	labels = labels[:len(labels):len(labels)] // appends below must copy
	bounds, cum := h.Buckets()
	for i, b := range bounds {
		e.sample(name+"_bucket", cum[i], append(labels, "le", strconv.FormatFloat(b, 'g', -1, 64))...)
	}
	e.sample(name+"_bucket", h.Count(), append(labels, "le", "+Inf")...)
	e.sample(name+"_sum", h.Sum(), labels...)
	e.sample(name+"_count", h.Count(), labels...)
}

// labelEscaper escapes a label value: backslash, double quote and
// newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders name/value pairs as {a="x",b="y"}, or "" for none.
func labelSet(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sortedKeys returns m's keys in ascending order, so a labeled family's
// samples render deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
