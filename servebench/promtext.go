package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promPage is one scraped Prometheus text exposition: sample value by full
// series key, exactly as written (name plus label block).
type promPage map[string]float64

// parseProm reads the text format: comment and blank lines are skipped, and
// every sample line is "series value [timestamp]".
func parseProm(r io.Reader) (promPage, error) {
	page := promPage{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// The series key ends at the last space outside a label block.
		end := strings.LastIndexByte(text, '}')
		sp := strings.IndexByte(text[end+1:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value in %q", line, text)
		}
		key := text[:end+1+sp]
		fields := strings.Fields(text[end+1+sp:])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value %q: %v", line, fields[0], err)
		}
		page[key] = v
	}
	return page, sc.Err()
}

// metricName returns the series key's metric name (the part before labels).
func metricName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sum adds every series of one metric whose key contains each of the given
// label fragments (e.g. `endpoint="select"`).
func (p promPage) sum(name string, labels ...string) float64 {
	total := 0.0
next:
	for key, v := range p {
		if metricName(key) != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// delta returns after - before for one metric summed as in sum. Counters
// only grow, so a delta is the work done between the two scrapes.
func delta(before, after promPage, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// scrape fetches and parses url + "/metrics".
func scrape(client *http.Client, url string) (promPage, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// scrapeAll scrapes several endpoints and merges the pages by summing
// series with equal keys, so replica-tier counters add up across a fleet.
func scrapeAll(client *http.Client, urls []string) (promPage, error) {
	merged := promPage{}
	for _, u := range urls {
		p, err := scrape(client, u)
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			merged[k] += v
		}
	}
	return merged, nil
}
