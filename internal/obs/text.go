package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Page is one parsed text exposition.
type Page struct {
	Families map[string]*Family // by name
	// Series maps each sample's key — its name and label block exactly as
	// the line writes them, e.g. `x_total{device="a"}` — to its value.
	Series map[string]float64
}

// Family is one metric family and its samples, in page order.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one sample line; a histogram's samples carry the _bucket, _sum
// and _count suffixes in Name.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one label pair of a sample.
type Label struct{ Name, Value string }

// Label returns the value of the named label, or "" when absent.
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

var unescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n", `\"`, `"`)

// ParseText reads a text exposition and holds it to the format's grouping
// rules: a family's HELP and TYPE each appear at most once and before its
// samples, every sample belongs to the family declared above it, and no
// series repeats. A violation is an error naming the line.
func ParseText(r io.Reader) (*Page, error) {
	p := &Page{Families: make(map[string]*Family), Series: make(map[string]float64)}
	var cur *Family
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		directive, rest, _ := strings.Cut(strings.TrimPrefix(line, "# "), " ")
		switch {
		case strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "# ") && (directive == "HELP" || directive == "TYPE"):
			name, text, _ := strings.Cut(rest, " ")
			if cur == nil || cur.Name != name || len(cur.Samples) > 0 {
				if p.Families[name] != nil {
					return nil, fmt.Errorf("line %d: family %s declared again", n, name)
				}
				cur = &Family{Name: name}
				p.Families[name] = cur
			}
			field := &cur.Help
			if directive == "TYPE" {
				field = &cur.Type
				switch text {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", n, text)
				}
			}
			if *field != "" {
				return nil, fmt.Errorf("line %d: second %s for %s", n, directive, name)
			}
			*field = unescaper.Replace(text)
		case strings.HasPrefix(line, "#"):
			continue // a plain comment
		default:
			s, key, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", n, err)
			}
			if cur == nil || !cur.owns(s.Name) {
				return nil, fmt.Errorf("line %d: sample %s outside its family", n, s.Name)
			}
			if _, dup := p.Series[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate series %s", n, key)
			}
			p.Series[key] = s.Value
			cur.Samples = append(cur.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func (f *Family) owns(name string) bool {
	suffix, ok := strings.CutPrefix(name, f.Name)
	if !ok || suffix == "" {
		return ok
	}
	return (f.Type == "histogram" || f.Type == "summary") &&
		(suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}

// parseSample reads `name{label="value",...} value [timestamp]`; key is the
// line up to the value.
func parseSample(line string) (s Sample, key string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, "", fmt.Errorf("want `series value` in %q", line)
	}
	s.Name, key = line[:i], line[i:]
	if key[0] == '{' {
		rest := key[1:]
		for !strings.HasPrefix(rest, "}") {
			name, val, ok := strings.Cut(rest, `="`)
			j := 0
			for ; j < len(val) && val[j] != '"'; j++ {
				if val[j] == '\\' {
					j++
				}
			}
			if !ok || name == "" || j >= len(val) {
				return s, "", fmt.Errorf("malformed label block in %q", line)
			}
			s.Labels = append(s.Labels, Label{name, unescaper.Replace(val[:j])})
			rest = strings.TrimPrefix(val[j+1:], ",")
		}
		i = len(line) - len(rest) + 1
	}
	key, rest := line[:i], line[i:]
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 || (rest[0] != ' ' && rest[0] != '\t') {
		return s, "", fmt.Errorf("want `series value [timestamp]` in %q", line)
	}
	s.Value, err = strconv.ParseFloat(fields[0], 64)
	return s, key, err
}
