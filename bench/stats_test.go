package main

import (
	"math"
	"testing"
)

func TestQuantilesMatchPythonStatistics(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	// statistics.quantiles(xs, n=4) == [1.75, 3.5, 5.25]; median 3.5
	if got, want := iqrShare(xs), (5.25-1.75)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if got := quantile(xs, 1); got != 9 {
		t.Errorf("quantile(1) = %v, want 9", got)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}
