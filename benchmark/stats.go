package main

import (
	"math"
	"sort"
)

// dist summarises a timing sample the way the ledger reports one: the
// median, a fixed 99th percentile, and the highest percentile that
// still has at least ten samples beyond it — the tail a sample of
// this size can actually support.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_p"` // 0 when no ladder percentile has 10 samples beyond it
	Tail  float64 `json:"tail"`
}

// tailLadder lists the percentiles tried for dist.Tail, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

// summarize sorts v in place.
func summarize(v []float64) dist {
	d := dist{N: len(v)}
	if len(v) == 0 {
		return d
	}
	sort.Float64s(v)
	d.P50 = quantile(v, 50)
	d.P99 = quantile(v, 99)
	for _, p := range tailLadder {
		if float64(len(v))*(100-p)/100 >= 10 {
			d.TailP, d.Tail = p, quantile(v, p)
			break
		}
	}
	return d
}

// quantile returns the p-th percentile of sorted by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// reading is one metric over the repetitions of a run: the median is
// the reported value, min and max give the spread -compare needs to
// call a difference resolved.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"` // samples behind the value: reps, or ops for a latency
}

func readingOf(unit string, perRep []float64) reading {
	r := reading{Unit: unit, N: len(perRep), Value: median(perRep)}
	if len(perRep) > 0 {
		r.Min, r.Max = perRep[0], perRep[0]
	}
	for _, x := range perRep {
		r.Min, r.Max = math.Min(r.Min, x), math.Max(r.Max, x)
	}
	return r
}

// spread is the reps' range as a share of their median.
func (r reading) spread() float64 {
	if r.Value == 0 {
		return 0
	}
	return (r.Max - r.Min) / math.Abs(r.Value)
}
