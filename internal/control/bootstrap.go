package control

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/mathx"
	"repro/internal/models"
	"repro/internal/telemetry"
)

// Bootstrap trains per-platform Eq. 4 switching models from scratch —
// a small instrumented run of the Dryad workloads with generous idle
// gaps, so the governor sweeps its P-states and the switching fit can
// bin them. The result is what chaos-dc -capping and chaos-bench
// -control admit into their registries when no pre-trained model is
// supplied. Deterministic for a given (platforms, seed) pair.
//
// Note the built-in staleness: the training run is uncapped, so the
// moment the controller starts actuating it changes the distribution the
// model learned from. That is the intended lifecycle stress, not a bug.
func Bootstrap(platforms []string, seed int64) (*models.ClusterModel, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("control: no platforms to bootstrap models for")
	}
	spec := core.ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0})
	var mms []*models.MachineModel
	for _, p := range platforms {
		tc, err := telemetry.New(p, 2, mathx.DeriveSeed(seed, "boot:"+p))
		if err != nil {
			return nil, fmt.Errorf("control: bootstrap %s: %w", p, err)
		}
		// 120 s idle gaps put real weight on the low P-states, which the
		// capping controller will actuate into.
		traces, err := tc.RunSequence([]string{"Prime", "Sort"}, 120, 3000, 0)
		if err != nil {
			return nil, fmt.Errorf("control: bootstrap %s: %w", p, err)
		}
		cm, err := core.FitCluster(models.TechSwitching, spec, traces, 0)
		if err != nil {
			return nil, fmt.Errorf("control: bootstrap %s: %w", p, err)
		}
		mms = append(mms, cm.ByPlatform[p])
	}
	return models.NewClusterModel(mms...)
}
