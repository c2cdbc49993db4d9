package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckExposition strictly validates a Prometheus text-format (0.0.4)
// exposition, the way a picky scraper would:
//
//   - every non-comment line must parse as `name{labels} value`
//   - every sample must belong to a family declared by a preceding
//     `# TYPE` line (histogram samples may use the _bucket/_sum/_count
//     suffixes of a declared histogram family)
//   - a family's TYPE must be declared exactly once, before its samples
//   - no duplicate series (same name + label set)
//   - histogram children must be complete and consistent: buckets
//     cumulative and non-decreasing in `le` order, a `+Inf` bucket equal
//     to `_count`, and `_sum`/`_count` present
//
// It exists so tests and CI can fail on malformed or duplicated series
// the moment a new family is added, instead of when a real Prometheus
// first scrapes the service.
func CheckExposition(data []byte) error {
	types := map[string]string{} // family -> type
	helped := map[string]bool{}  // family -> HELP seen
	sampled := map[string]bool{} // family -> samples seen
	series := map[string]int{}   // name + sorted labels -> line no
	type histChild struct {
		buckets map[float64]float64 // le -> cumulative count
		sum     *float64
		count   *float64
	}
	hists := map[string]*histChild{} // family + labels-minus-le -> child

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			return fmt.Errorf("line %d: blank line inside exposition", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if fields[1] == "HELP" {
				if helped[name] {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				helped[name] = true
				continue
			}
			typ := fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, typ, name)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			if sampled[name] {
				return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			types[name] = typ
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family, suffix := name, ""
		if _, ok := types[name]; !ok {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, s)
				if base != name && types[base] == "histogram" {
					family, suffix = base, s
					break
				}
			}
		}
		typ, ok := types[family]
		if !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, name)
		}
		if typ == "histogram" && suffix == "" {
			return fmt.Errorf("line %d: histogram %s sampled without _bucket/_sum/_count suffix", lineNo, name)
		}
		sampled[family] = true

		key := seriesKey(name, labels)
		if prev, dup := series[key]; dup {
			return fmt.Errorf("line %d: duplicate series %s (first at line %d)", lineNo, key, prev)
		}
		series[key] = lineNo

		if typ == "histogram" {
			var le float64
			rest := make([]label, 0, len(labels))
			haveLe := false
			for _, l := range labels {
				if l.name == "le" {
					haveLe = true
					le, err = parseFloat(l.value)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %v", lineNo, l.value, err)
					}
					continue
				}
				rest = append(rest, l)
			}
			ck := seriesKey(family, rest)
			child := hists[ck]
			if child == nil {
				child = &histChild{buckets: map[float64]float64{}}
				hists[ck] = child
			}
			switch suffix {
			case "_bucket":
				if !haveLe {
					return fmt.Errorf("line %d: %s_bucket without le label", lineNo, family)
				}
				child.buckets[le] = value
			case "_sum":
				child.sum = &value
			case "_count":
				child.count = &value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	for key, child := range hists {
		if child.sum == nil || child.count == nil {
			return fmt.Errorf("histogram %s missing _sum or _count", key)
		}
		inf, ok := child.buckets[math.Inf(1)]
		if !ok {
			return fmt.Errorf("histogram %s missing +Inf bucket", key)
		}
		if inf != *child.count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", key, inf, *child.count)
		}
		les := make([]float64, 0, len(child.buckets))
		for le := range child.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := -math.MaxFloat64
		prevCum := -1.0
		for _, le := range les {
			if cum := child.buckets[le]; cum < prevCum {
				return fmt.Errorf("histogram %s: bucket le=%g count %g below le=%g count %g (not cumulative)",
					key, le, cum, prev, prevCum)
			} else {
				prev, prevCum = le, cum
			}
		}
	}
	return nil
}

type label struct{ name, value string }

// seriesKey renders a canonical series identity: labels sorted by name
// so reordered duplicates still collide.
func seriesKey(name string, labels []label) string {
	ls := append([]label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].name < ls[j].name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.name, l.value)
	}
	b.WriteByte('}')
	return b.String()
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseSample parses one `name{labels} value [timestamp]` line.
func parseSample(line string) (string, []label, float64, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[nameEnd:]
	var labels []label
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%v in %q", err, line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err := parseFloat(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// parseLabels consumes `name="value",...}` and returns the labels plus
// the remainder of the line after the closing brace.
func parseLabels(s string) ([]label, string, error) {
	var labels []label
	seen := map[string]bool{}
	for {
		if len(s) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label")
		}
		name := s[:eq]
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if seen[name] {
			return nil, "", fmt.Errorf("repeated label %q", name)
		}
		seen[name] = true
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("unquoted value for label %q", name)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if len(s) == 0 {
				return nil, "", fmt.Errorf("unterminated value for label %q", name)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if len(s) == 0 {
					return nil, "", fmt.Errorf("dangling escape in label %q", name)
				}
				switch s[0] {
				case '"', '\\':
					val.WriteByte(s[0])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %q", s[0], name)
				}
				s = s[1:]
				continue
			}
			val.WriteByte(c)
		}
		labels = append(labels, label{name: name, value: val.String()})
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
		}
	}
}

func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

func validLabelName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
