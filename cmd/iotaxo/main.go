// Command iotaxo prints the paper's taxonomy tables: the Table 1 template,
// the built-in Table 2 classification of LANL-Trace, Tracefs and //TRACE,
// single-framework cards, the framework x workload overhead matrix, and
// (with -measured) classifications with overheads re-measured on the
// simulated cluster. Framework names resolve through the registry in
// internal/framework and workload names through the registry in
// internal/workload, so every registered framework and scenario — including
// ones added after this command was written — works with -table card,
// -table matrix, -measured, and -workload.
//
// Usage:
//
//	iotaxo -list
//	iotaxo -list-workloads
//	iotaxo -table template
//	iotaxo -table summary -format markdown
//	iotaxo -table card -framework Tracefs
//	iotaxo -table card -framework PathTrace -measured
//	iotaxo -table card -framework Tracefs -measured -workload metadata-storm
//	iotaxo -table summary -measured
//	iotaxo -table matrix
//	iotaxo -table matrix -workload checkpoint-restart
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/harness"
	"iotaxo/internal/workload"
)

func main() {
	table := flag.String("table", "summary", "which table: template | summary | extended | card | matrix")
	format := flag.String("format", "text", "output format: text | markdown | csv")
	fwName := flag.String("framework", "LANL-Trace", "framework name for -table card (see -list)")
	wlName := flag.String("workload", "", "restrict measurement to one workload (see -list-workloads); empty or all = every workload")
	measured := flag.Bool("measured", false, "re-measure overheads on the simulated cluster (slow)")
	list := flag.Bool("list", false, "list registered frameworks and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list registered workloads and exit")
	cacheDir := flag.String("cache-dir", harness.DefaultCacheDir(), "directory for the persisted simulation-result cache (empty = in-memory only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "iotaxo: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}

	if *list {
		fmt.Print(listOutput())
		return
	}
	if *listWorkloads {
		fmt.Print(listWorkloadsOutput())
		return
	}

	// -measured keeps the QuickOptions block-size sweep (a real min-max
	// envelope per cell); -table matrix runs the cheaper single-point smoke
	// configuration, sized for the full registry x registry grid.
	o := harness.QuickOptions()
	if *table == "matrix" {
		o = harness.MatrixSmokeOptions()
	}
	o.Cache = harness.NewCache(*cacheDir)
	if *wlName != "" && *wlName != "all" {
		w, ok := workload.ByName(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "iotaxo: unknown workload %q (have all, %s)\n",
				*wlName, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
		o.Workloads = []workload.Workload{w}
	}

	switch *table {
	case "template":
		fmt.Print(core.Table1Template())
	case "card":
		fw, ok := framework.Lookup(*fwName)
		if !ok {
			fmt.Fprintf(os.Stderr, "iotaxo: unknown framework %q (have %s)\n",
				*fwName, strings.Join(framework.Names(), ", "))
			os.Exit(2)
		}
		c := fw.Classification()
		if *measured {
			fmt.Println("# measuring on the simulated cluster (scaled-down volumes)...")
			m, err := harness.MatrixSweepOf(o, fw)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iotaxo: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, m.Stats.Footer())
			c = m.Classifications()[0]
		}
		fmt.Print(core.RenderCard(c))
	case "matrix":
		fmt.Println("# measuring on the simulated cluster (scaled-down volumes)...")
		m, err := harness.MatrixSweep(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotaxo: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(m.Format())
		fmt.Fprintln(os.Stderr, m.Stats.Footer())
	case "extended":
		fmt.Print(extendedTable())
	case "summary":
		if *measured {
			fmt.Println("# measuring on the simulated cluster (scaled-down volumes)...")
			m, err := harness.MatrixSweep(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "iotaxo: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(m.RenderComparison())
			fmt.Fprintln(os.Stderr, m.Stats.Footer())
			return
		}
		cs := core.AllPaperClassifications()
		switch *format {
		case "text":
			fmt.Print(core.RenderComparison(cs...))
		case "markdown":
			fmt.Print(core.RenderMarkdown(cs...))
		case "csv":
			fmt.Print(core.RenderCSV(cs...))
		default:
			fmt.Fprintf(os.Stderr, "iotaxo: unknown format %q\n", *format)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "iotaxo: unknown table %q\n", *table)
		os.Exit(2)
	}
}

// listOutput renders the framework registry: every framework that can be
// classified and measured, in deterministic order.
func listOutput() string {
	var b strings.Builder
	b.WriteString("# registered I/O tracing frameworks\n")
	for _, fw := range framework.All() {
		c := fw.Classification()
		events := make([]string, len(c.EventTypes))
		for i, e := range c.EventTypes {
			events[i] = string(e)
		}
		fmt.Fprintf(&b, "%-28s %s\n", fw.Name(), strings.Join(events, ", "))
	}
	return b.String()
}

// listWorkloadsOutput renders the workload registry: every scenario the
// overhead matrix measures frameworks against, in deterministic order.
func listWorkloadsOutput() string {
	var b strings.Builder
	b.WriteString("# registered workload scenarios\n")
	for _, w := range workload.All() {
		fmt.Fprintf(&b, "%-20s %s\n", w.Name(), w.Description())
	}
	return b.String()
}

// extendedTable renders the future-work "global taxonomy": every registered
// framework side by side — the three surveyed frameworks plus the two
// Section 6 names next (multi-layer trace analysis [6] and path-based
// event tracing [8]), and any framework registered since.
func extendedTable() string {
	cs := make([]*core.Classification, 0)
	for _, fw := range framework.All() {
		cs = append(cs, fw.Classification())
	}
	return core.RenderComparison(cs...)
}
