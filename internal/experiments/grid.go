package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/models"
)

// Grid returns (computing and caching on first use) the full technique x
// feature-set cross-validation grid for one platform and workload — the
// model exploration behind Figures 3/4 and Tables III/IV.
func (s *Suite) Grid(platform, workload string) ([]core.GridEntry, error) {
	key := platform + "/" + workload
	if s.grids == nil {
		s.grids = map[string][]core.GridEntry{}
	}
	if g, ok := s.grids[key]; ok {
		return g, nil
	}
	ds, err := s.Dataset(platform)
	if err != nil {
		return nil, err
	}
	traces, ok := ds.ByWorkload[workload]
	if !ok {
		return nil, fmt.Errorf("experiments: workload %q not collected for %s", workload, platform)
	}
	specs, err := s.Specs(platform)
	if err != nil {
		return nil, err
	}
	entries, err := core.EvaluateGrid(traces, models.Techniques(), specs)
	if err != nil {
		return nil, err
	}
	s.grids[key] = entries
	return entries, nil
}

// Best returns the lowest-cluster-DRE entry of the platform/workload grid.
func (s *Suite) Best(platform, workload string) (core.GridEntry, error) {
	g, err := s.Grid(platform, workload)
	if err != nil {
		return core.GridEntry{}, err
	}
	return core.BestEntry(g)
}
