package main

import (
	"time"
)

// samples is a set of latency observations.
type samples []time.Duration

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

// ratio is a/b, or 0 when b is 0 (a layer a workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
