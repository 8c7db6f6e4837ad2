package main

import (
	"slices"
	"time"
)

// partLen is the length of the equal parts the measured window is cut
// into. Each end-to-end figure is computed per part, scaled by the part's
// calibration to the reference speed (see calib.go), and reported as the
// median over the parts.
const partLen = 250 * time.Millisecond

// byPart groups samples by the part of the window they were sent in.
func byPart(samples []sample, n int) [][]sample {
	parts := make([][]sample, n)
	for _, s := range samples {
		parts[s.part] = append(parts[s.part], s)
	}
	return parts
}

// scales returns each part's factor from the host's speed to the
// reference speed: calibRef over the median of the part's calibration
// timings, or 0 for a part without timings.
func scales(calib [][]time.Duration) []float64 {
	k := make([]float64, len(calib))
	for i, c := range calib {
		if len(c) > 0 {
			ms := make([]float64, len(c))
			for j, t := range c {
				ms[j] = float64(t)
			}
			k[i] = float64(calibRef) / median(ms)
		}
	}
	return k
}

// atRef returns the median over the parts with samples and a scale of
// f(part) at the reference speed: a time multiplied by the part's scale,
// a rate divided by it.
func atRef(parts [][]sample, scale []float64, rate bool, f func([]sample) float64) float64 {
	var vals []float64
	for i, p := range parts {
		if len(p) == 0 || scale[i] == 0 {
			continue
		}
		if rate {
			vals = append(vals, f(p)/scale[i])
		} else {
			vals = append(vals, f(p)*scale[i])
		}
	}
	return median(vals)
}

// throughput is the request rate of one part of the window: the requests
// sent in it over the time between its first and last send, less the
// calibration timed in between.
func throughput(part []sample) float64 {
	if len(part) < 2 {
		return 0
	}
	span := part[len(part)-1].start.Sub(part[0].start)
	for _, s := range part[1:] {
		span -= s.pause
	}
	return float64(len(part)-1) / span.Seconds()
}

// quantiles sorts one duration of every sample and returns a lookup of
// its q-quantile in milliseconds, interpolating linearly between order
// statistics.
func quantiles(samples []sample, field func(sample) time.Duration) func(q float64) float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(field(s)) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	return func(q float64) float64 { return quantile(ms, q) }
}

// quantile is the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(values []float64) float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return quantile(sorted, 0.5)
}
