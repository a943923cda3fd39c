package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // a metric without a bound: reported, not judged
)

// worsening is the relative change of a metric in its bad direction.
func worsening(d MetricDef, base, new float64) float64 {
	if base == 0 {
		if new == 0 {
			return 0
		}
		base = new
	}
	change := (new - base) / base
	if d.Better == "higher" {
		change = -change
	}
	return change
}

// allBetter reports whether every new value beats every base value.
func allBetter(d MetricDef, base, new []float64) bool {
	if len(base) == 0 || len(new) == 0 {
		return false
	}
	for _, b := range base {
		for _, n := range new {
			if d.Better == "lower" && n >= b || d.Better == "higher" && n <= b {
				return false
			}
		}
	}
	return true
}

// judge applies the benchmark's rule to one metric: exact counts must be
// equal; a bounded metric is worse when its median worsened by more than
// the bound (and the absolute floor), better when it improved by more
// than the bound, and unresolved when either side's run-to-run spread is
// wider than the bound — unless every new run beats every base run.
func judge(d MetricDef, base, new Sample) string {
	switch {
	case d.Exact:
		if base.Value != new.Value {
			return verdictWorse
		}
		return verdictWithin
	case d.Bound == 0:
		return verdictInfo
	}
	spread := spreadShare(base.Values)
	if s := spreadShare(new.Values); s > spread {
		spread = s
	}
	if spread > d.Bound {
		if allBetter(d, base.Values, new.Values) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	change := worsening(d, base.Value, new.Value)
	switch {
	case change > d.Bound && math.Abs(new.Value-base.Value) > d.Floor:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// Compare judges run file b against base a, writes one row per workload
// and metric both files hold, and reports whether b passes: no row is
// worse and every workload's sim_digest is unchanged.
func Compare(a, b *RunFile, out io.Writer) (pass bool) {
	pass = true
	byName := make(map[string]WorkloadResult)
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tratio\tbound\tverdict")
	for _, nw := range b.Workloads {
		bw, ok := byName[nw.Name]
		if !ok {
			continue
		}
		if bw.SimDigest != nw.SimDigest {
			pass = false
			fmt.Fprintf(out, "%s: sim_digest changed: %.16s… → %.16s… (a speed-up may not change a simulated result)\n",
				nw.Name, bw.SimDigest, nw.SimDigest)
		}
		for _, sets := range [][2]map[string]Sample{{bw.EndToEnd, nw.EndToEnd}, {bw.PerLayer, nw.PerLayer}} {
			names := make([]string, 0, len(sets[1]))
			for name := range sets[1] {
				if _, ok := sets[0][name]; ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				d, ok := metricByName[name]
				if !ok {
					continue
				}
				base, new := sets[0][name], sets[1][name]
				verdict := judge(d, base, new)
				if verdict == verdictWorse {
					pass = false
				}
				ratio := "n/a"
				if base.Value != 0 {
					ratio = fmt.Sprintf("%.3f× of %.6g %s", new.Value/base.Value, base.Value, d.Unit)
				}
				bound := "-"
				if d.Exact {
					bound = "exact"
				} else if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", nw.Name, name, base.Value, new.Value, ratio, bound, verdict)
			}
		}
	}
	tw.Flush()
	return pass
}
