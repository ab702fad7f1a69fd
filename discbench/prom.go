package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// series is one scrape of a Prometheus text exposition: every sample
// keyed by its name and label set exactly as the server printed them.
type series map[string]float64

func parseSeries(r io.Reader) (series, error) {
	s := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// splitKey separates "name{labels}" into its name and label text.
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// sum adds every sample of metric name whose label text contains each
// of the given label pairs (written as key="value").
func (s series) sum(name string, want ...string) float64 {
	total := 0.0
	for k, v := range s {
		n, labels := splitKey(k)
		if n != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// minus returns the per-sample difference s − before.
func (s series) minus(before series) series {
	d := series{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// add merges o into s by summing samples with equal keys.
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// histogram extracts the cumulative buckets of histogram name (summed
// over label sets) as ascending finite bounds and per-bound counts, the
// +Inf count last.
func (s series) histogram(name string) (bounds, counts []float64) {
	byBound := map[float64]float64{}
	for k, v := range s {
		n, labels := splitKey(k)
		if n != name+"_bucket" {
			continue
		}
		_, le, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		if j := strings.IndexByte(le, '"'); j >= 0 {
			le = le[:j]
		}
		ub := math.Inf(1)
		if le != "+Inf" {
			var err error
			if ub, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		byBound[ub] += v
	}
	for ub := range byBound {
		if !math.IsInf(ub, 1) {
			bounds = append(bounds, ub)
		}
	}
	sort.Float64s(bounds)
	for _, ub := range bounds {
		counts = append(counts, byBound[ub])
	}
	return bounds, append(counts, byBound[math.Inf(1)])
}
