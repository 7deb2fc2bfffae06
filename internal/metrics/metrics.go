// Package metrics implements the paper's evaluation metrics and the
// system's runtime observability counters.
//
// Evaluation side: the state ratio of §6 (the average number of distinct
// states across participants per key, including absence) and small-sample
// summary statistics with 95% confidence intervals, as reported in every
// figure.
//
// Runtime side: Pipeline aggregates reconciliation-stage latencies, work
// counts, the fan-out busy gauge, and the batched decision-flush shape
// across a System's rounds; StoreCounters tracks an update store's publish
// volume, internal lock contention, and decision round-trip economy. Both
// are safe for concurrent use and exported via System.Pipeline and the
// central store's Metrics.
package metrics

import (
	"fmt"
	"math"

	"orchestra/internal/core"
)

// StateRatio computes the §6 metric over the participants' instances: for
// every key present in at least one instance, count the distinct states the
// participants hold for it — a state being the tuple value bound to the key
// or "absent" — and average over keys. It ranges from 1 (identical
// instances) to the number of participants (no overlap); lower means more
// shared data.
func StateRatio(instances []*core.Instance, rels ...string) float64 {
	if len(instances) == 0 {
		return 0
	}
	if len(rels) == 0 {
		rels = instances[0].Schema().Names()
	}
	type keyID struct{ rel, key string }
	states := make(map[keyID]map[string]bool)
	for _, in := range instances {
		for _, rel := range rels {
			for _, keyEnc := range in.Keys(rel) {
				k := keyID{rel: rel, key: keyEnc}
				if states[k] == nil {
					states[k] = make(map[string]bool)
				}
			}
		}
	}
	if len(states) == 0 {
		return 1
	}
	total := 0
	for k, set := range states {
		key, err := core.DecodeTuple(k.key)
		if err != nil {
			continue
		}
		for _, in := range instances {
			if t, ok := in.Lookup(k.rel, key); ok {
				set[t.Encode()] = true
			} else {
				set["\x00absent"] = true
			}
		}
		total += len(set)
	}
	return float64(total) / float64(len(states))
}

// Summary holds small-sample statistics of repeated trials.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation
	CI95 float64 // half-width of the 95% confidence interval
}

// Summarize computes mean, sample standard deviation, and the 95%
// confidence half-width using Student's t for small samples.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n-1))
	return Summary{
		N:    n,
		Mean: mean,
		Std:  std,
		CI95: tCritical(n-1) * std / math.Sqrt(float64(n)),
	}
}

// String renders "mean ± ci".
func (s Summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI95)
}

// tCritical returns the two-sided 95% Student's t critical value for the
// given degrees of freedom.
func tCritical(df int) float64 {
	// Standard table for small df; converges to the normal 1.96.
	table := []float64{
		0,                                                             // df 0 (unused)
		12.706,                                                        // 1
		4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2-10
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11-20
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21-30
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
