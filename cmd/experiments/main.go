// Command experiments reproduces the paper's evaluation: every table and
// figure of §V, plus the ablations called out in DESIGN.md.
//
//	experiments -scale medium -seed 42 -all
//	experiments -scale small -fig7 -table8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/patchecko"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		scaleName = flag.String("scale", "medium", "corpus scale: tiny|small|medium|large")
		seed      = flag.Int64("seed", 42, "seed")
		workers   = flag.Int("workers", runtime.NumCPU(), "scan worker pool size (results are identical at any count; timing columns vary)")
		all       = flag.Bool("all", false, "run every experiment")
		fig7      = flag.Bool("fig7", false, "Fig. 7: static-stage FP rates")
		fig8      = flag.Bool("fig8", false, "Fig. 8: training curves")
		table3    = flag.Bool("table3", false, "Table III: dynamic profiles (case study)")
		table45   = flag.Bool("table45", false, "Tables IV/V: similarity rankings (case study)")
		table67   = flag.Bool("table67", false, "Tables VI/VII: pipeline accuracy per CVE")
		table8    = flag.Bool("table8", false, "Table VIII: patch verdicts")
		ablate    = flag.Bool("ablate", false, "ablations")
		headline  = flag.Bool("headline", false, "headline metrics")
		census    = flag.Bool("census", false, "firmware census (§II-A)")
		charts    = flag.Bool("charts", false, "render Fig. 7/8 as ASCII bar charts too")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *all {
		*fig7, *fig8, *table3, *table45, *table67, *table8, *ablate, *headline =
			true, true, true, true, true, true, true, true
		*census, *charts = true, true
	}
	if !(*fig7 || *fig8 || *table3 || *table45 || *table67 || *table8 || *ablate || *headline || *census) {
		flag.Usage()
		return fmt.Errorf("nothing selected (use -all)")
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	scale, err := corpus.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	// The root context for every suite call. Interrupts keep their own exit
	// path (the signal goroutine below flushes and exits) rather than
	// cancelling this context: a cancelled scan would surface as a scan error
	// and mask the partial-artifact flush.
	ctx := context.Background()
	suite, err := experiments.NewSuite(ctx, experiments.Config{
		Scale:   scale,
		Seed:    *seed,
		Workers: *workers,
		Obs:     of.Collector(),
		Log:     func(s string) { fmt.Println(s) },
	})
	if err != nil {
		return err
	}
	flushObs := func() error {
		return of.Write(obs.RunInfo{
			Tool:    "experiments",
			Seed:    *seed,
			Scale:   scale.Name,
			Workers: *workers,
		})
	}
	defer func() {
		if werr := flushObs(); werr != nil && err == nil {
			err = werr
		}
	}()
	// A signal exit must not lose the sinks either: flush what the suite has
	// collected so far, then exit with the conventional interrupted status.
	// The sink is concurrency-safe, so flushing mid-experiment is sound.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		flushObs()
		fmt.Fprintf(os.Stderr, "experiments: %v: partial observability artifacts flushed\n", sig)
		os.Exit(130)
	}()
	out := os.Stdout
	caseDevice := corpus.ThingOS.Name
	const caseCVE = "CVE-2018-9412"

	if *census {
		fmt.Println()
		c, err := suite.Census()
		if err != nil {
			return err
		}
		c.Render(out)
	}
	if *fig8 {
		fmt.Println()
		r := suite.Fig8()
		r.Render(out)
		if *charts {
			fmt.Println()
			r.RenderChart(out)
		}
	}
	if *fig7 {
		fmt.Println()
		r, err := suite.Fig7()
		if err != nil {
			return err
		}
		r.Render(out)
		if *charts {
			fmt.Println()
			r.RenderChart(out)
		}
	}
	if *table3 {
		fmt.Println()
		r, err := suite.Table3(ctx, caseDevice, caseCVE)
		if err != nil {
			return err
		}
		r.Render(out)
	}
	if *table45 {
		for _, mode := range []patchecko.QueryMode{patchecko.QueryVulnerable, patchecko.QueryPatched} {
			fmt.Println()
			r, err := suite.Ranking(ctx, caseDevice, caseCVE, mode, 10)
			if err != nil {
				return err
			}
			r.Render(out)
		}
	}
	if *table67 {
		for _, mode := range []patchecko.QueryMode{patchecko.QueryVulnerable, patchecko.QueryPatched} {
			fmt.Println()
			r, err := suite.Pipeline(ctx, caseDevice, mode)
			if err != nil {
				return err
			}
			r.Render(out)
		}
	}
	if *table8 {
		for _, dev := range experiments.Devices() {
			fmt.Println()
			r, err := suite.Verdicts(ctx, dev.Name)
			if err != nil {
				return err
			}
			r.Render(out)
		}
	}
	if *ablate {
		fmt.Println()
		bl, err := suite.Baselines(caseDevice)
		if err != nil {
			return err
		}
		bl.Render(out)
		fmt.Println()
		d, err := suite.AblateDistance(ctx, caseDevice)
		if err != nil {
			return err
		}
		d.Render(out)
		fmt.Println()
		rr, err := suite.VerdictsWithReplay(ctx, caseDevice)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — Table VIII with exploit-replay extension enabled:")
		rr.Render(out)
		fmt.Println()
		e, err := suite.AblateEnvironments(ctx, caseDevice)
		if err != nil {
			return err
		}
		e.Render(out)
		fmt.Println()
		h, err := suite.AblateHybrid(ctx, caseDevice)
		if err != nil {
			return err
		}
		h.Render(out)
		fmt.Println()
		fg, err := suite.AblateFeatureGroups()
		if err != nil {
			return err
		}
		fg.Render(out)
		fmt.Println()
		ob, err := suite.AblateObfuscation()
		if err != nil {
			return err
		}
		ob.Render(out)
		fmt.Println()
		pf, err := suite.AblatePrefilter(ctx)
		if err != nil {
			return err
		}
		pf.Render(out)
	}
	if *headline {
		fmt.Println()
		h, err := suite.Headlines(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("headline metrics (paper values in parentheses):\n")
		fmt.Printf("  deep learning test accuracy: %.1f%%  (paper: >93%%)\n", 100*h.TestAccuracy)
		fmt.Printf("  deep learning test AUC:      %.3f  (prior work: 0.971)\n", h.TestAUC)
		fmt.Printf("  true match in top 3:         %.0f%%  (paper: 100%%)\n", 100*h.Top3Rate)
		fmt.Printf("  patch detection accuracy:    %.0f%%  (paper: 96%%)\n", 100*h.PatchAccuracy)
	}
	return nil
}
