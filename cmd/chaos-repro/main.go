// chaos-repro regenerates every table and figure of the paper's evaluation
// on the simulated infrastructure and prints a consolidated report.
//
// Usage:
//
//	chaos-repro                 # full paper-scale run (~50 s on 2 vCPUs)
//	chaos-repro -fast           # reduced configuration (~9 s)
//	chaos-repro -only table4    # one experiment
//	chaos-repro -out report.txt # also write the report to a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		fast = flag.Bool("fast", false, "use the reduced configuration")
		only = flag.String("only", "", "run one experiment: "+stepIDs())
		out  = flag.String("out", "", "also write the report to this file")
		seed = flag.Int64("seed", 2012, "simulation seed")
	)
	flag.Parse()
	cfg := experiments.Default()
	if *fast {
		cfg = experiments.Fast()
	}
	cfg.Seed = *seed

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos-repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	if err := run(w, cfg, strings.ToLower(*only)); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-repro:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg experiments.Config, only string) error {
	if only != "" && !slices.ContainsFunc(steps, func(st step) bool { return st.id == only }) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", only, stepIDs())
	}
	s := experiments.NewSuite(cfg)
	fmt.Fprintf(w, "CHAOS reproduction: %d machines/cluster, %d runs/workload, platforms %v, workloads %v\n",
		s.Cfg.Machines, s.Cfg.Runs, s.Cfg.Platforms, s.Cfg.Workloads)
	for _, st := range steps {
		if only != "" && only != st.id {
			continue
		}
		if err := st.fn(s, w); err != nil {
			return fmt.Errorf("%s: %w", st.id, err)
		}
	}
	return nil
}

// stepIDs lists every experiment id, in report order.
func stepIDs() string {
	ids := make([]string, len(steps))
	for i, st := range steps {
		ids[i] = st.id
	}
	return strings.Join(ids, ", ")
}

// step is one experiment of the report.
type step struct {
	id string
	fn func(s *experiments.Suite, w io.Writer) error
}

// steps are the report's experiments, in the order it prints them.
var steps = []step{
	{"table1", func(s *experiments.Suite, w io.Writer) error { experiments.TableI(w); return nil }},
	{"fig1", func(s *experiments.Suite, w io.Writer) error {
		_, err := s.Figure1(w, s.PickPlatform("Core2"))
		return err
	}},
	{"table2", func(s *experiments.Suite, w io.Writer) error { _, err := s.TableII(w); return err }},
	{"fig2", func(s *experiments.Suite, w io.Writer) error {
		_, _, err := s.Figure2(w, s.PickPlatform("Opteron"))
		return err
	}},
	{"table3", func(s *experiments.Suite, w io.Writer) error { _, err := s.TableIII(w, "Core2", "Atom"); return err }},
	{"fig3", func(s *experiments.Suite, w io.Writer) error { _, err := s.Figure3(w); return err }},
	{"fig4", func(s *experiments.Suite, w io.Writer) error { _, err := s.Figure4(w); return err }},
	{"table4", func(s *experiments.Suite, w io.Writer) error {
		cells, err := s.TableIV(w)
		if err != nil {
			return err
		}
		worst := 0.0
		for _, c := range cells {
			if c.ClusterDRE > worst {
				worst = c.ClusterDRE
			}
		}
		hist := experiments.BestLabelHistogram(cells)
		fmt.Fprintf(w, "worst cell DRE %.1f%% (paper bound: 12%%); winning models: %v\n", worst*100, hist)
		return nil
	}},
	{"fig5", func(s *experiments.Suite, w io.Writer) error { _, err := s.Figure5(w); return err }},
	{"multiworkload", func(s *experiments.Suite, w io.Writer) error {
		_, err := s.MultiWorkload(w, s.PickPlatform("Core2"))
		return err
	}},
	{"generality", func(s *experiments.Suite, w io.Writer) error {
		_, err := s.Generality(w, s.PickPlatform("Core2"), nil)
		return err
	}},
	{"hetero", func(s *experiments.Suite, w io.Writer) error { _, err := s.Heterogeneous(w); return err }},
	{"overhead", func(s *experiments.Suite, w io.Writer) error { _, err := s.Overhead(w); return err }},
	{"ablations", func(s *experiments.Suite, w io.Writer) error {
		p0 := s.PickPlatform("Opteron")
		w0 := s.PickWorkload("Sort")
		if _, _, err := s.AblationPooling(w, p0, w0); err != nil {
			return err
		}
		if _, err := s.AblationCorrThreshold(w, p0, nil); err != nil {
			return err
		}
		if _, err := s.AblationMachineCount(w, p0, w0); err != nil {
			return err
		}
		if _, err := s.AblationLagWindow(w, p0, s.PickWorkload("PageRank"), nil); err != nil {
			return err
		}
		if _, _, err := s.AblationPerCoreFreq(w, p0, s.PickWorkload("Prime")); err != nil {
			return err
		}
		return nil
	}},
	{"calibration", func(s *experiments.Suite, w io.Writer) error {
		_, err := s.CalibrationTraining(w, s.PickPlatform("Core2"))
		return err
	}},
	{"sensitivity", func(s *experiments.Suite, w io.Writer) error {
		_, err := s.SensitivityNoise(w, s.PickPlatform("Core2"), s.PickWorkload("Prime"), nil)
		return err
	}},
	{"variability", func(s *experiments.Suite, w io.Writer) error {
		_, _, err := experiments.VariabilityStudy(w, s.PickPlatform("Core2"), 20, s.Cfg.Seed)
		return err
	}},
}
