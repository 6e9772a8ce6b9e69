package main

import (
	"bufio"
	"strconv"
	"strings"
)

// sample is one parsed line of the Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics body.
type scrape []sample

// parseScrape parses the text exposition the program's registries serve.
// Label values the benchmark reads (unit kinds, worker URLs) never hold
// escaped quotes, so a plain split suffices.
func parseScrape(text string) scrape {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := sample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			s.labels = map[string]string{}
			for _, kv := range strings.Split(body, `",`) {
				k, val, ok := strings.Cut(kv, `="`)
				if ok {
					s.labels[k] = strings.TrimSuffix(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// sum adds every series of the named metric.
func (s scrape) sum(name string) float64 {
	var total float64
	for _, x := range s {
		if x.name == name {
			total += x.value
		}
	}
	return total
}

// byLabel maps each value of label to the named metric's value.
func (s scrape) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, x := range s {
		if x.name == name {
			out[x.labels[label]] += x.value
		}
	}
	return out
}
