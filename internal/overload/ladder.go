package overload

// Brownout levels. Each rung sheds progressively more auxiliary work so
// the estimate path itself keeps answering.
const (
	// LevelNormal: no degradation.
	LevelNormal = 0
	// LevelTrim: shrink the batch fill window so queued work drains with
	// less artificial latency (smaller batches, faster turnaround).
	LevelTrim = 1
	// LevelShedAux: additionally stop sampling new traces — auxiliary
	// work is the first real casualty.
	LevelShedAux = 2
	// LevelPartial: additionally stop fanning out /v1/estimate/cluster
	// to peers and serve coverage-partial local-slice answers.
	LevelPartial = 3

	// MaxLevel is the deepest brownout rung.
	MaxLevel = LevelPartial
)

// Brownout pressure thresholds (limiter shed fraction): at or above
// ladderEnter[i] level i moves toward level i+1, and strictly below
// ladderExit[i] level i+1 moves back toward level i. Exit below Enter is
// the hysteresis.
var (
	ladderEnter = [MaxLevel]float64{0.05, 0.25, 0.5}
	ladderExit  = [MaxLevel]float64{0.02, 0.10, 0.25}
)

// LadderConfig tunes brownout entry/exit pacing. The zero value is usable.
type LadderConfig struct {
	// EnterTicks is how many consecutive ticks the pressure must sit at
	// or above the entry threshold before a rung is climbed. Default 2.
	EnterTicks int
	// ExitTicks is how many consecutive ticks the pressure must sit
	// below the exit threshold before a rung is descended. Default 8 —
	// exiting is deliberately slower than entering so the ladder cannot
	// flap.
	ExitTicks int
}

func (c LadderConfig) withDefaults() LadderConfig {
	if c.EnterTicks <= 0 {
		c.EnterTicks = 2
	}
	if c.ExitTicks <= 0 {
		c.ExitTicks = 8
	}
	return c
}

// Ladder is the brownout state machine. It is driven from a single
// controller goroutine via Observe; the current level is read lock-free
// from the hot path via the controller's atomic.
type Ladder struct {
	cfg   LadderConfig
	level int
	up    int
	down  int
}

// NewLadder builds a ladder at LevelNormal.
func NewLadder(cfg LadderConfig) *Ladder {
	return &Ladder{cfg: cfg.withDefaults()}
}

// Observe feeds one tick's pressure sample and returns the (possibly
// changed) level. Rungs move one at a time, each transition requiring
// the configured number of consecutive qualifying ticks.
func (b *Ladder) Observe(pressure float64) (level int, changed bool) {
	switch {
	case b.level < MaxLevel && pressure >= ladderEnter[b.level]:
		b.up++
		b.down = 0
		if b.up >= b.cfg.EnterTicks {
			b.level++
			b.up = 0
			return b.level, true
		}
	case b.level > LevelNormal && pressure < ladderExit[b.level-1]:
		b.down++
		b.up = 0
		if b.down >= b.cfg.ExitTicks {
			b.level--
			b.down = 0
			return b.level, true
		}
	default:
		// Pressure sits in the hysteresis band: hold position and reset
		// both streaks.
		b.up, b.down = 0, 0
	}
	return b.level, false
}

// Level returns the current rung.
func (b *Ladder) Level() int { return b.level }
