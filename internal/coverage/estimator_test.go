package coverage

import (
	"strings"
	"testing"
)

func TestParseEstimator(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EstimatorKind
		ok   bool
	}{
		{"", EstimatorExact, true},
		{"exact", EstimatorExact, true},
		{"hll", EstimatorHLL, true},
		{"sketch", EstimatorHLL, true},
		{"sharded", EstimatorExact, false},
		{"HLL", EstimatorExact, false},
	} {
		got, err := ParseEstimator(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("ParseEstimator(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseEstimator(%q) = %v, want an error", tc.in, got)
		} else if !strings.Contains(err.Error(), "exact|hll") {
			t.Errorf("ParseEstimator(%q) error %q does not name exact|hll", tc.in, err)
		}
	}
	for _, k := range []EstimatorKind{EstimatorExact, EstimatorHLL} {
		if got, err := ParseEstimator(k.String()); err != nil || got != k {
			t.Errorf("ParseEstimator(%v.String()) = %v, %v", k, got, err)
		}
	}
}
