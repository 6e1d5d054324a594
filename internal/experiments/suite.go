// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulated infrastructure: Table I (platforms),
// Table II (selected features), Table III (error metrics comparison),
// Table IV (best DRE per workload and cluster), Figures 1–5, the
// heterogeneous-cluster result, and the collector-overhead claim.
//
// A Suite lazily collects and caches per-cluster datasets and feature
// selections so experiments that share inputs (Fig. 2/3/4, Tables II/IV)
// pay for them once.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/featsel"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Config sizes the experiment suite.
type Config struct {
	// Machines per homogeneous cluster (paper: 5).
	Machines int
	// Runs per workload (paper: 5).
	Runs int
	// Seed drives all simulation randomness.
	Seed int64
	// Platforms and Workloads restrict the grid (defaults: all).
	Platforms []string
	Workloads []string
}

// Default returns the paper-scale configuration.
func Default() Config {
	return Config{Machines: 5, Runs: 5, Seed: 2012,
		Platforms: sim.PlatformNames(), Workloads: workloads.Names()}
}

// Fast returns a reduced configuration for tests and benchmarks: fewer
// machines, runs, platforms, and workloads.
func Fast() Config {
	return Config{Machines: 3, Runs: 3, Seed: 2012,
		Platforms: []string{"Core2", "Opteron"},
		Workloads: []string{"PageRank", "Prime"}}
}

func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 5
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Seed == 0 {
		c.Seed = 2012
	}
	if len(c.Platforms) == 0 {
		c.Platforms = sim.PlatformNames()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workloads.Names()
	}
	return c
}

// Suite runs experiments over cached datasets.
type Suite struct {
	Cfg Config

	datasets map[string]*core.Dataset
	features map[string]*featsel.Result
	general  []string
	grids    map[string][]core.GridEntry
}

// NewSuite returns a Suite for the configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg:      cfg.withDefaults(),
		datasets: map[string]*core.Dataset{},
		features: map[string]*featsel.Result{},
	}
}

// SeedDatasets pre-populates the dataset cache. Benchmarks use it to share
// one deterministic collection across many suites so each bench measures
// only its own experiment's computation.
func (s *Suite) SeedDatasets(ds map[string]*core.Dataset) {
	for k, v := range ds {
		s.datasets[k] = v
	}
}

// Datasets exposes the cache for sharing via SeedDatasets.
func (s *Suite) Datasets() map[string]*core.Dataset { return s.datasets }

// Dataset returns (collecting on first use) the named platform's dataset.
func (s *Suite) Dataset(platform string) (*core.Dataset, error) {
	if ds, ok := s.datasets[platform]; ok {
		return ds, nil
	}
	ds, err := core.Collect(platform, s.Cfg.Machines, s.Cfg.Workloads, s.Cfg.Runs, s.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.datasets[platform] = ds
	return ds, nil
}

// Features returns (computing on first use) the platform's
// cluster-specific feature selection.
func (s *Suite) Features(platform string) (*featsel.Result, error) {
	if res, ok := s.features[platform]; ok {
		return res, nil
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	res, err := ds.SelectFeatures()
	if err != nil {
		return nil, err
	}
	// The switching technique and the QCP variant need the frequency
	// counter; guarantee it is present (it is a dominant feature on
	// every DVFS platform anyway).
	res.Features = ensureCounter(res.Features, counters.CPUFreqCore0)
	res.Features = ensureCounter(res.Features, counters.CPUTotal)
	sort.Strings(res.Features)
	s.features[platform] = res
	return res, nil
}

// General returns (computing on first use) the cross-platform general
// feature set built from every configured platform's selection.
func (s *Suite) General() ([]string, error) {
	if s.general != nil {
		return s.general, nil
	}
	byCluster := map[string]*featsel.Result{}
	var reg *counters.Registry
	for _, p := range s.Cfg.Platforms {
		res, err := s.Features(p)
		if err != nil {
			return nil, err
		}
		byCluster[p] = res
		ds, _ := s.Dataset(p)
		reg = ds.Registry
	}
	gen, err := featsel.General(byCluster, reg, 0)
	if err != nil {
		return nil, err
	}
	s.general = gen
	return gen, nil
}

// Specs returns the feature-set axis for the platform: CPU-only, cluster,
// general, cluster+lagged-MHz.
func (s *Suite) Specs(platform string) ([]models.FeatureSpec, error) {
	res, err := s.Features(platform)
	if err != nil {
		return nil, err
	}
	gen, err := s.General()
	if err != nil {
		return nil, err
	}
	return core.DefaultSpecs(res.Features, gen), nil
}

func ensureCounter(features []string, name string) []string {
	for _, f := range features {
		if f == name {
			return features
		}
	}
	return append(features, name)
}

// section prints a report header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
