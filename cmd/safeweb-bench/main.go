// Command safeweb-bench regenerates every quantitative artefact of the
// paper's evaluation section (§5.2, §5.3, Figure 5):
//
//	safeweb-bench -exp all         run everything (default)
//	safeweb-bench -exp security    E1: §5.2 vulnerability matrix
//	safeweb-bench -exp frontend    E2: page generation with/without tracking
//	safeweb-bench -exp backend     E3: event latency with/without IFC
//	safeweb-bench -exp fig5        E4+E5: Figure 5 latency break-downs
//	safeweb-bench -exp throughput  E6: event throughput
//	safeweb-bench -exp tcb         E7: trusted codebase accounting
//
// Flags -requests, -events, -patients and -authwork scale the workloads;
// -network routes the backend experiments through the STOMP network
// broker (the paper's deployment shape) instead of the in-process broker.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"safeweb/internal/bench"
	"safeweb/internal/vulninject"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|security|frontend|backend|fig5|throughput|tcb")
	requests := flag.Int("requests", 1000, "requests/events per latency mode")
	events := flag.Int("events", 50000, "events per throughput mode")
	patients := flag.Int("patients", 120, "synthetic registry size")
	authWork := flag.Int("authwork", 2000, "credential-hash work factor")
	network := flag.Bool("network", false, "use the STOMP network broker for backend experiments")
	root := flag.String("root", ".", "repository root for the TCB accounting")
	flag.Parse()

	w := bench.Workload{
		Patients: *patients,
		Requests: *requests,
		AuthWork: *authWork,
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "safeweb-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("security", func() error { return runSecurity() })
	run("frontend", func() error { return runFrontend(w) })
	run("backend", func() error { return runBackend(w, *network) })
	run("fig5", func() error { return runFig5(w) })
	run("throughput", func() error { return runThroughput(*events, *network) })
	run("tcb", func() error { return runTCB(*root) })
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runSecurity() error {
	header("E1 — §5.2 security evaluation (vulnerability injection)")
	outcomes, err := vulninject.RunAll(nil)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vulnerability class\twithout SafeWeb\twith SafeWeb\tpaper")
	for _, o := range outcomes {
		baseline := "no disclosure"
		if o.BaselineDisclosed {
			baseline = "data disclosed"
		}
		prevented := "DISCLOSED"
		if o.SafeWebPrevented {
			prevented = "blocked"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\tprevented\n", o.Name, baseline, prevented)
	}
	return tw.Flush()
}

func runFrontend(w bench.Workload) error {
	header("E2 — §5.3 front-page generation time")
	cmp, err := bench.PageGeneration(w)
	if err != nil {
		return err
	}
	printComparison(cmp, "page generation")
	return nil
}

func runBackend(w bench.Workload, network bool) error {
	header("E3 — §5.3 backend event latency (producer → storage)")
	cmp, err := bench.EventLatency(w, network)
	if err != nil {
		return err
	}
	printComparison(cmp, "event latency")
	return nil
}

func printComparison(cmp bench.Comparison, what string) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "mode\tmean %s\tpaper\n", what)
	fmt.Fprintf(tw, "baseline (no tracking)\t%v\t%s\n", cmp.Baseline.Mean, cmp.PaperBaseline)
	fmt.Fprintf(tw, "safeweb\t%v\t%s\n", cmp.SafeWeb.Mean, cmp.PaperSafeWeb)
	_ = tw.Flush()
	fmt.Printf("overhead: %+.1f%% (paper: +14%%/+15%%)\n", cmp.OverheadPercent())
}

func runFig5(w bench.Workload) error {
	header("E4 — Figure 5 frontend latency break-down")
	front, err := bench.MeasureFrontendBreakdown(w)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tmeasured\tpaper")
	fmt.Fprintf(tw, "authentication\t%v\t87 ms\n", front.Auth)
	fmt.Fprintf(tw, "privilege fetching\t%v\t3 ms\n", front.PrivFetch)
	fmt.Fprintf(tw, "template rendering\t%v\t63 ms\n", front.Template)
	fmt.Fprintf(tw, "label propagation\t%v\t17 ms\n", front.LabelPropagation)
	fmt.Fprintf(tw, "other\t%v\t10 ms\n", front.Other)
	fmt.Fprintf(tw, "total\t%v\t180 ms\n", front.Total)
	if err := tw.Flush(); err != nil {
		return err
	}

	header("E5 — Figure 5 backend latency break-down")
	back, err := bench.MeasureBackendBreakdown(w)
	if err != nil {
		return err
	}
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tmeasured\tpaper")
	fmt.Fprintf(tw, "event processing\t%v\t51 ms\n", back.Processing)
	fmt.Fprintf(tw, "data (de)serialisation\t%v\t20 ms\n", back.Serialisation)
	fmt.Fprintf(tw, "label management\t%v\t13 ms\n", back.LabelManagement)
	fmt.Fprintf(tw, "total (with SafeWeb)\t%v\t84 ms\n", back.Total)
	return tw.Flush()
}

func runThroughput(events int, network bool) error {
	header("E6 — §5.3 event throughput (producer → consumer)")
	cmp, err := bench.Throughput(events, network)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tevents/s\tpaper")
	fmt.Fprintf(tw, "baseline (no tracking)\t%.0f\t%s\n", cmp.Baseline.EventsPerSecond, cmp.PaperBaseline)
	fmt.Fprintf(tw, "safeweb\t%.0f\t%s\n", cmp.SafeWeb.EventsPerSecond, cmp.PaperSafeWeb)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("change: %+.1f%% (paper: −17%%)\n", cmp.ChangePercent())
	return nil
}

func runTCB(root string) error {
	header("E7 — §5.2 trusted codebase accounting")
	sum, err := bench.Summarise(root)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "package\trole\tsource LOC\ttest LOC")
	for _, p := range sum.Packages {
		role := ""
		switch {
		case p.Trusted:
			role = "trusted"
		case p.Tooling:
			role = "tooling"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", p.Package, role, p.Lines, p.TestLines)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\ntrusted (audited once): %d LOC — paper: taint lib 1943 + engine 1908\n", sum.TrustedLines)
	fmt.Printf("untrusted application code (protected by the safety net): %d LOC — paper: 2841 of the MDT app\n", sum.UntrustedLines)
	fmt.Printf("development tooling (benchmarks, analyzers, fault injection): %d LOC\n", sum.ToolingLines)
	fmt.Printf("test code: %d LOC\n", sum.TestLines)
	return nil
}
