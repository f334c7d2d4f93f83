// Command schedcmp reproduces Figure 15: the practicality comparison of
// the Oracle scheduler against the Amdahl-tree scheduler on the
// Mediabench workloads (the benchmarks that need multiple accelerators
// within one application). -json emits one schema row per benchmark plus
// a geomean aggregate row. The unified -trace/-v/-vv observability flags
// record engine spans and progress.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"exocore/internal/cli"
	"exocore/internal/report"
	"exocore/internal/runner"
	"exocore/internal/stats"
	"exocore/internal/workloads"
)

func main() {
	app := cli.New("schedcmp", "all")
	suite := app.Flags().String("suite", "Mediabench", "suite to compare on (or 'all')")
	app.MustParse()
	defer app.Close()
	eng := app.Engine()
	core := app.CoreConfig()
	avail := app.Registry().Names()
	design := app.Registry().DesignCode(core.Name, avail)

	var wls []*workloads.Workload
	for _, wl := range app.Workloads() {
		if *suite != "all" && wl.Suite != *suite {
			continue
		}
		wls = append(wls, wl)
	}

	type row struct {
		bench  string
		oc, ac int64
		oe, ae float64
		baseC  int64
		baseE  float64
	}
	rows, err := runner.Map(eng, len(wls), func(i int) (row, error) {
		wl := wls[i]
		ctx, err := eng.Solos(wl, core, avail)
		if err != nil {
			return row{}, err
		}
		oc, oe, err := eng.Evaluate(wl, core, ctx.Oracle(avail))
		if err != nil {
			return row{}, err
		}
		ac, ae, err := eng.Evaluate(wl, core, ctx.AmdahlTree(avail))
		if err != nil {
			return row{}, err
		}
		return row{bench: wl.Name, oc: oc, ac: ac, oe: oe, ae: ae,
			baseC: ctx.BaseCycles, baseE: ctx.BaseEnergyNJ}, nil
	})
	if err != nil {
		app.Fail(err)
	}

	var perfRatio, energyRatio []float64
	for _, r := range rows {
		perfRatio = append(perfRatio, float64(r.oc)/float64(r.ac))
		energyRatio = append(energyRatio, r.oe/r.ae)
	}
	gmPerf, gmEnergy := stats.Geomean(perfRatio), stats.Geomean(energyRatio)

	if app.JSON {
		doc := report.New("schedcmp")
		for _, r := range rows {
			doc.Add(report.Result{
				Design: design, Core: core.Name, BSAs: avail,
				Bench:  r.bench,
				Params: map[string]string{"suite": *suite},
				Extra: map[string]float64{
					"oracle_cycles":     float64(r.oc),
					"amdahl_cycles":     float64(r.ac),
					"oracle_energy_nj":  r.oe,
					"amdahl_energy_nj":  r.ae,
					"oracle_rel_time":   float64(r.oc) / float64(r.baseC),
					"amdahl_rel_time":   float64(r.ac) / float64(r.baseC),
					"oracle_rel_energy": r.oe / r.baseE,
					"amdahl_rel_energy": r.ae / r.baseE,
				},
			})
		}
		doc.Add(report.Result{
			Design: design, Core: core.Name, BSAs: avail,
			Params: map[string]string{"suite": *suite, "aggregate": "geomean"},
			Extra: map[string]float64{
				"amdahl_vs_oracle_perf":       gmPerf,
				"amdahl_vs_oracle_energy_eff": gmEnergy,
			},
		})
		app.Emit(doc)
		return
	}

	fmt.Printf("# Figure 15: Oracle vs Amdahl-tree scheduler (%s ExoCore, relative to plain %s)\n",
		core.Name, core.Name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BENCH\tORACLE TIME\tAMDAHL TIME\tORACLE ENERGY\tAMDAHL ENERGY")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", r.bench,
			float64(r.oc)/float64(r.baseC), float64(r.ac)/float64(r.baseC),
			r.oe/r.baseE, r.ae/r.baseE)
	}
	w.Flush()
	fmt.Printf("\nAmdahl vs Oracle geomean: %.2fx performance, %.2fx energy efficiency\n",
		gmPerf, gmEnergy)
	fmt.Println("(paper §5.4: Amdahl gives 0.89x the Oracle's performance, 1.21x energy efficiency)")
	app.Finish()
}
