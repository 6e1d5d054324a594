package serve

import (
	"math"
	"testing"

	"repro/internal/overload"
)

// TestServeLoadgenPriorityDraw: the per-group priority draw is a pure
// function of (seed, group), lands on each tier in proportion to its
// weight, never picks a zero-weight tier, sends everything interactive
// when no weight is set, and allocates nothing.
func TestServeLoadgenPriorityDraw(t *testing.T) {
	const seed, groups = 7, 8000
	cases := []struct {
		name    string
		weights [overload.NumPriorities]int
		wantPct [overload.NumPriorities]float64
	}{
		{"1:3:4 mix", [overload.NumPriorities]int{1, 3, 4}, [overload.NumPriorities]float64{12.5, 37.5, 50}},
		{"zero-weight batch", [overload.NumPriorities]int{1, 0, 4}, [overload.NumPriorities]float64{20, 0, 80}},
		{"background only", [overload.NumPriorities]int{0, 0, 5}, [overload.NumPriorities]float64{0, 0, 100}},
		{"all zero", [overload.NumPriorities]int{}, [overload.NumPriorities]float64{100, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var n [overload.NumPriorities]int
			for g := 0; g < groups; g++ {
				p := drawPriority(tc.weights, seed, g)
				if again := drawPriority(tc.weights, seed, g); again != p {
					t.Fatalf("group %d drew %v then %v", g, p, again)
				}
				n[p]++
			}
			for p, want := range tc.wantPct {
				got := 100 * float64(n[p]) / groups
				if want == 0 && n[p] != 0 {
					t.Errorf("%v drawn %d times at weight 0", overload.Priority(p), n[p])
				}
				if math.Abs(got-want) > 2 {
					t.Errorf("%v share %.2f%%, want %.1f%% ± 2", overload.Priority(p), got, want)
				}
			}
			g := 0
			if allocs := testing.AllocsPerRun(100, func() {
				drawPriority(tc.weights, seed, g)
				g++
			}); allocs != 0 {
				t.Errorf("%v allocs per draw, want 0", allocs)
			}
		})
	}
}
