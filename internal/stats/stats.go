// Package stats provides the summary statistics and fixed-width table
// rendering used by the experiment harnesses. The statistics mirror those
// reported in the paper: Table I reports min/max/mean/median/mode/stddev of
// injections-to-failure, and the simulator prints per-rank timing summaries
// (minimum, maximum, average) at shutdown.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the descriptive statistics of a sample, matching the fields
// of Table I in the paper.
type Summary struct {
	N      int     `json:"n"`   // sample size
	Sum    float64 `json:"sum"` // sum of all observations
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Mode   float64 `json:"mode"`   // smallest most-frequent value (observations rounded to integers)
	StdDev float64 `json:"stddev"` // population standard deviation
}

// Summarize computes a Summary over xs. It returns the zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	s.Mode = mode(sorted)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N))
	return s
}

// SummarizeInts computes a Summary over integer observations.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// mode returns the smallest most-frequent value of a sorted sample, with
// observations rounded to the nearest integer (Table I counts discrete
// injection counts).
func mode(sorted []float64) float64 {
	best, bestCount := math.Round(sorted[0]), 0
	cur, curCount := math.Round(sorted[0]), 0
	for _, x := range sorted {
		r := math.Round(x)
		if r == cur {
			curCount++
		} else {
			cur, curCount = r, 1
		}
		if curCount > bestCount {
			best, bestCount = cur, curCount
		}
	}
	return best
}

// Table renders rows as a fixed-width text table with a header row and a
// separator, in the style of the paper's result tables. Column widths adapt
// to the widest cell. Numeric-looking cells are right-aligned.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				if numericCell(c) {
					fmt.Fprintf(&b, "%*s", widths[i], c)
				} else {
					fmt.Fprintf(&b, "%-*s", widths[i], c)
				}
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Percentile returns the p-th percentile (0..100) of the sample using
// nearest-rank interpolation; it returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram renders a fixed-width text histogram of the sample over
// `buckets` equal-width bins, one line per bin with a proportional bar.
func Histogram(xs []float64, buckets, barWidth int) string {
	if len(xs) == 0 || buckets <= 0 {
		return "(empty)\n"
	}
	if barWidth <= 0 {
		barWidth = 40
	}
	s := Summarize(xs)
	width := (s.Max - s.Min) / float64(buckets)
	if width == 0 {
		width = 1
	}
	counts := make([]int, buckets)
	for _, x := range xs {
		b := int((x - s.Min) / width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		lo := s.Min + float64(i)*width
		hi := lo + width
		bar := 0
		if maxCount > 0 {
			bar = c * barWidth / maxCount
		}
		if c > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "%8.1f–%-8.1f %4d %s\n", lo, hi, c, strings.Repeat("█", bar))
	}
	return b.String()
}

// numericCell reports whether a cell looks like a number (possibly with
// units or separators), used for right-alignment.
func numericCell(s string) bool {
	if s == "" || s == "—" || s == "-" {
		return true
	}
	seenDigit := false
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			seenDigit = true
		case r == '.' || r == ',' || r == '-' || r == '+' || r == 'e' || r == 'E' || r == 's' || r == '%' || r == ' ':
			// allowed in numeric cells ("5,248 s", "1e-6", "50 %")
		default:
			return false
		}
	}
	return seenDigit
}
