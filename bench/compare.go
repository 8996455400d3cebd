package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles prints, for every (workload, metric) the base file has, each
// side's median and quartiles over its runs and the other sides' ratio to
// the base. An end-to-end metric is flagged REGRESSED when its median is
// worse than the base's by more than its bound, and "unresolved" — never
// "unchanged" — when either side's own spread exceeds the bound, unless
// every run of the side beats every run of the base.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare needs a base file and at least one other")
	}
	var sides []map[string][]Metric // per file: "workload\x00metric" -> one Metric per run
	var keys []string               // in the base's order
	for i, path := range paths {
		f, err := readResults(path)
		if err != nil {
			return err
		}
		side := map[string][]Metric{}
		for _, run := range f.Runs {
			for _, m := range run.Metrics {
				key := run.Workload + "\x00" + m.Name
				if i == 0 && side[key] == nil {
					keys = append(keys, key)
				}
				side[key] = append(side[key], m)
			}
		}
		sides = append(sides, side)
	}

	regressed := 0
	for _, key := range keys {
		base := sides[0][key]
		spec := base[0]
		baseVals := values(base)
		bq := quartOf(baseVals)
		if bq.Median == 0 {
			continue // a layer the workload never enters
		}
		workload := key[:len(key)-len(spec.Name)-1]
		fmt.Fprintf(w, "%s %s (%s, %s is better)\n", workload, spec.Name, spec.Unit, spec.Better)
		fmt.Fprintf(w, "  %-24s median %12.4f  quartiles [%.4f, %.4f]  runs %d\n", paths[0], bq.Median, bq.Q1, bq.Q3, bq.N)
		for i, side := range sides[1:] {
			vals := values(side[key])
			if len(vals) == 0 {
				fmt.Fprintf(w, "  %-24s missing\n", paths[i+1])
				continue
			}
			q := quartOf(vals)
			verdict := ""
			if spec.Bound > 0 {
				verdict = judge(spec, baseVals, vals)
				if verdict == "REGRESSED" {
					regressed++
				}
			}
			fmt.Fprintf(w, "  %-24s median %12.4f  quartiles [%.4f, %.4f]  runs %d  ratio %.4f of base %.4f  %s\n",
				paths[i+1], q.Median, q.Q1, q.Q3, q.N, q.Median/bq.Median, bq.Median, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bounds", regressed)
	}
	return nil
}

func values(ms []Metric) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Value
	}
	return out
}

// judge compares one end-to-end metric's runs on two sides.
func judge(spec Metric, base, other []float64) string {
	bq, oq := quartOf(base), quartOf(other)
	worse := oq.Median/bq.Median - 1 // share of the base's median
	if spec.Better == higher {
		worse = 1 - oq.Median/bq.Median
	}
	spread := func(q Quart) float64 { return (q.Q3 - q.Q1) / q.Median }
	if spread(bq) > spec.Bound || spread(oq) > spec.Bound {
		if !allBetter(spec.Better, base, other) {
			return fmt.Sprintf("unresolved: spread %.1f%% / %.1f%% exceeds the %.0f%% bound",
				100*spread(bq), 100*spread(oq), 100*spec.Bound)
		}
	}
	if worse > spec.Bound {
		return "REGRESSED"
	}
	return fmt.Sprintf("within the %.0f%% bound", 100*spec.Bound)
}

// allBetter reports whether every run of other beats every run of base.
func allBetter(better string, base, other []float64) bool {
	b, o := append([]float64(nil), base...), append([]float64(nil), other...)
	sort.Float64s(b)
	sort.Float64s(o)
	if better == higher {
		return o[0] > b[len(b)-1]
	}
	return o[len(o)-1] < b[0]
}
