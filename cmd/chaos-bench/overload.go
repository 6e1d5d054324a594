package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/loadgen"
	"repro/internal/models"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OverloadSchema identifies the overload benchmark document
// (BENCH_overload.json); bump on incompatible change. Every rate is in
// samples/s; since v3 the achieved rate counts the send window and tier
// latencies run from each request's scheduled send.
const OverloadSchema = "chaos-bench-overload/v3"

// Overload-cell serving shape. PredictStall pins the predict path at
// overloadStall per batch, so engine capacity is exactly
// overloadShards x overloadBatchMax / overloadStall = 400 samples/s on
// any hardware — which is what lets committed goodput numbers mean the
// same thing across machines. The deadline is 20 stalls. Each request
// carries one snapshot of overloadMachines samples, so the 5x cell sends
// 666 requests/s: few enough that a race-detector build sharing two CPUs
// with another test binary still sends over 95% of them.
const (
	overloadShards   = 1
	overloadBatchMax = 4
	overloadStall    = 10 * time.Millisecond
	overloadDeadline = 200 * time.Millisecond
	overloadMachines = 3
)

// minAchievedFrac is the share of its offered rate a cell must actually
// send. Below it the load generator, not the engine, set the load, and
// the cell's load multiple would not mean what it says.
const minAchievedFrac = 0.9

// overloadCapacity is the pinned engine drain rate in samples/s.
func overloadCapacity() int {
	return int(float64(overloadShards*overloadBatchMax) / overloadStall.Seconds())
}

// OverloadDoc is the overload benchmark document: per-priority goodput
// and tail latency at fixed multiples of pinned engine capacity.
type OverloadDoc struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Seed      int64  `json:"seed"`
	// CapacityPerSec is the pinned engine drain rate every load multiple
	// is relative to.
	CapacityPerSec int `json:"capacity_per_sec"`
	// Machines is the number of samples in every snapshot (request).
	Machines   int     `json:"machines"`
	DeadlineMS float64 `json:"deadline_ms"`
	// Weights is the interactive,batch,background traffic mix.
	Weights [overload.NumPriorities]int `json:"weights"`
	Seconds int                         `json:"seconds_per_cell"`
	// ReproVerified is set after the smallest cell is run twice and both
	// runs produced identical offered-workload digests.
	ReproVerified bool           `json:"repro_verified"`
	Cells         []OverloadCell `json:"cells"`
}

// OverloadCell is one load-multiple measurement. Rates are samples/s;
// Snapshots, Shed, Late and Failed count snapshots.
type OverloadCell struct {
	// LoadX is the offered load as a multiple of engine capacity.
	LoadX int `json:"load_x"`
	// OfferedPS is the cell's target rate, LoadX x capacity. The load
	// generator is paced at OfferedPS / Machines snapshots/s rounded
	// down, at most Machines-1 samples/s under target.
	OfferedPS int `json:"offered_per_sec"`
	// AchievedPS is the rate actually sent: samples sent over the send
	// window, from the start of pacing to the start of the last send.
	AchievedPS float64 `json:"achieved_per_sec"`
	Snapshots  int     `json:"snapshots"`
	// WallMS runs from the start of pacing to the last response.
	WallMS float64 `json:"wall_ms"`
	// MaxLateMS is how far behind its schedule the latest send started.
	MaxLateMS  float64    `json:"max_late_ms"`
	Shed       int        `json:"shed"`
	Late       int        `json:"late"`
	Failed     int        `json:"failed"`
	Tiers      []TierCell `json:"tiers"`
	Inversions uint64     `json:"inversion_ticks"`
	// Digest is the sha256 over the offered workload (seed, load shape,
	// and the exact per-tier request split); the same seed and cell must
	// reproduce it bit for bit.
	Digest string `json:"digest"`
}

// TierCell is one priority tier's slice of a cell. Sent, OK, Shed and
// Late count snapshots; GoodputPS is the tier's answered samples/s over
// the cell's wall time. P50Ms and P99Ms time each request from its
// scheduled send.
type TierCell struct {
	Priority  string  `json:"priority"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Late      int     `json:"late"`
	GoodputPS float64 `json:"goodput_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// overloadWeights is the fixed interactive,batch,background mix.
var overloadWeights = [overload.NumPriorities]int{1, 3, 4}

// overloadWorkload simulates the replayed telemetry (a Core2 cluster
// running Prime then Sort), keeps the model's two input counters, and
// fits the linear cluster model every cell serves.
func overloadWorkload(seed int64) ([]*trace.Trace, *models.ClusterModel, error) {
	cluster, err := telemetry.New("Core2", overloadMachines, seed)
	if err != nil {
		return nil, nil, err
	}
	traces, err := cluster.RunSequence([]string{"Prime", "Sort"}, 10, 3000, 0)
	if err != nil {
		return nil, nil, err
	}
	// Requests carry only the counters the model reads. Encoding and
	// decoding all 253 counters per sample takes enough CPU that, at the
	// 5x rate under the race detector, the load generator rather than the
	// pinned engine would set the load.
	spec := core.ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0})
	for i, t := range traces {
		if traces[i], err = trace.SelectColumns(t, spec.Counters); err != nil {
			return nil, nil, err
		}
	}
	cm, err := core.FitCluster(models.TechLinear, spec, traces, 0)
	return traces, cm, err
}

// runOverloadCell boots a fresh overload-protected engine and drives it
// at loadX times pinned capacity for roughly `seconds` of offered load.
func runOverloadCell(reg *registry.Registry, traces []*trace.Trace, seed int64, loadX, seconds int) (OverloadCell, error) {
	srv, err := serve.New(reg, serve.Config{
		Shards: overloadShards, QueueDepth: 256,
		BatchWindow: 500 * time.Microsecond, BatchMax: overloadBatchMax,
		Deadline:     overloadDeadline,
		PredictStall: overloadStall,
		Names:        traces[0].Names,
		Overload: &overload.Config{
			Limiter: overload.LimiterConfig{
				Min: 8, Tolerance: 3,
				TierFrac: [overload.NumPriorities]float64{1, 0.25, 0.1},
			},
		},
	})
	if err != nil {
		return OverloadCell{}, err
	}
	defer srv.Close()
	httpSrv, err := serve.Serve("127.0.0.1:0", srv)
	if err != nil {
		return OverloadCell{}, err
	}
	defer httpSrv.Close()

	offered := overloadCapacity() * loadX
	paced := offered / overloadMachines
	snapshots := paced * seconds
	stats, err := loadgen.Run(loadgen.Config{
		TargetURL: "http://" + httpSrv.Addr(),
		Traces:    traces,
		Snapshots: snapshots, Rate: float64(paced), Clients: 256, Batch: 1,
		Seed:            seed,
		PriorityWeights: overloadWeights,
	})
	if err != nil {
		return OverloadCell{}, err
	}
	wall := stats.Wall.Seconds()

	shed, late := stats.ByStatus[http.StatusTooManyRequests], stats.ByStatus[http.StatusGatewayTimeout]
	cell := OverloadCell{
		LoadX: loadX, OfferedPS: offered,
		AchievedPS: round1(stats.AchievedPerSec()),
		Snapshots:  stats.Snapshots,
		WallMS:     math.Round(wall*1e4) / 10,
		MaxLateMS:  roundMs(stats.MaxLate),
		Shed:       shed, Late: late, Failed: stats.Snapshots - stats.ByStatus[http.StatusOK] - shed - late,
		Inversions: srv.Overload().InversionTicks(),
	}
	for p := 0; p < overload.NumPriorities; p++ {
		ts := stats.Tiers[p]
		tierOK := ts.ByStatus[http.StatusOK]
		cell.Tiers = append(cell.Tiers, TierCell{
			Priority: overload.Priority(p).String(),
			Sent:     ts.Sent, OK: tierOK,
			Shed:      ts.ByStatus[http.StatusTooManyRequests],
			Late:      ts.ByStatus[http.StatusGatewayTimeout],
			GoodputPS: round1(float64(tierOK*overloadMachines) / wall),
			P50Ms:     roundMs(ts.P50), P99Ms: roundMs(ts.P99),
		})
	}

	// The offered workload is a pure function of (seed, cell shape): the
	// digest covers the replayed power series and the exact per-tier
	// request split, so a rerun must reproduce it bit for bit. Writes to
	// a hash never fail.
	split := []float64{float64(seed), float64(loadX), float64(snapshots)}
	for p := 0; p < overload.NumPriorities; p++ {
		split = append(split, float64(stats.Tiers[p].Sent))
	}
	h := sha256.New()
	for _, tr := range traces {
		binary.Write(h, binary.LittleEndian, tr.Power)
	}
	binary.Write(h, binary.LittleEndian, split)
	cell.Digest = hex.EncodeToString(h.Sum(nil))
	return cell, nil
}

func runOverloadBench(w io.Writer, out string, seed int64, loads []int, seconds int) error {
	traces, cm, err := overloadWorkload(seed)
	if err != nil {
		return err
	}
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{Description: "bench", Source: "sim"}); err != nil {
		return err
	}

	doc := &OverloadDoc{
		Schema: OverloadSchema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seed: seed, CapacityPerSec: overloadCapacity(), Machines: overloadMachines,
		DeadlineMS: overloadDeadline.Seconds() * 1e3,
		Weights:    overloadWeights, Seconds: seconds,
	}
	for _, x := range loads {
		cell, err := runOverloadCell(reg, traces, seed, x, seconds)
		if err != nil {
			return err
		}
		doc.Cells = append(doc.Cells, cell)
		ti := cell.Tiers[overload.Interactive]
		fmt.Fprintf(w, "load=%dx offered=%d/s achieved=%.0f/s (max late %.1fms)  interactive %4d/%-4d ok (%.0f/s, p99 %.1fms)  shed=%d late=%d\n",
			x, cell.OfferedPS, cell.AchievedPS, cell.MaxLateMS, ti.OK, ti.Sent, ti.GoodputPS, ti.P99Ms, cell.Shed, cell.Late)
	}

	// Reproducibility: the smallest cell rerun must offer the identical
	// workload — same surge pacing, same per-tier split, same digest.
	rerun, err := runOverloadCell(reg, traces, seed, loads[0], seconds)
	if err != nil {
		return err
	}
	if rerun.Digest != doc.Cells[0].Digest {
		return fmt.Errorf("load %dx not reproducible: digest %s then %s",
			loads[0], doc.Cells[0].Digest, rerun.Digest)
	}
	doc.ReproVerified = true

	if err := writeDoc(out, doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d cells, repro verified)\n", out, len(doc.Cells))
	return nil
}

func round1(v float64) float64        { return math.Round(v*10) / 10 }
func roundMs(d time.Duration) float64 { return math.Round(d.Seconds()*1e5) / 100 }

// checkOverloadDoc validates an overload benchmark document. Beyond
// shape, it enforces the protection contract the subsystem exists for:
// at the heaviest load the interactive tier must survive at a strictly
// higher rate than background, and no cell may record a priority
// inversion or a transport failure. Every cell must also offer what its
// label says: LoadX x capacity, of which at least minAchievedFrac was
// actually sent.
func checkOverloadDoc(path string, data []byte, w io.Writer) error {
	var doc OverloadDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !doc.ReproVerified {
		return fmt.Errorf("%s: repro_verified is false", path)
	}
	if len(doc.Cells) < 2 {
		return fmt.Errorf("%s: %d cells, want at least 2 load multiples", path, len(doc.Cells))
	}
	if doc.CapacityPerSec <= 0 {
		return fmt.Errorf("%s: capacity_per_sec %d", path, doc.CapacityPerSec)
	}
	for i, c := range doc.Cells {
		if i > 0 && c.LoadX <= doc.Cells[i-1].LoadX {
			return fmt.Errorf("%s: cells not ordered by load multiple", path)
		}
		if c.OfferedPS != c.LoadX*doc.CapacityPerSec {
			return fmt.Errorf("%s: cell %dx offered %d samples/s, want %d x capacity %d",
				path, c.LoadX, c.OfferedPS, c.LoadX, doc.CapacityPerSec)
		}
		if c.AchievedPS < minAchievedFrac*float64(c.OfferedPS) {
			return fmt.Errorf("%s: cell %dx sent %.1f samples/s, under %.0f%% of its offered %d",
				path, c.LoadX, c.AchievedPS, minAchievedFrac*100, c.OfferedPS)
		}
		if len(c.Tiers) != overload.NumPriorities {
			return fmt.Errorf("%s: cell %dx has %d tiers, want %d", path, c.LoadX, len(c.Tiers), overload.NumPriorities)
		}
		if len(c.Digest) != 64 {
			return fmt.Errorf("%s: cell %dx missing digest", path, c.LoadX)
		}
		if c.Failed > 0 {
			return fmt.Errorf("%s: cell %dx recorded %d failed snapshots", path, c.LoadX, c.Failed)
		}
		if c.Inversions != 0 {
			return fmt.Errorf("%s: cell %dx recorded %d priority-inversion ticks", path, c.LoadX, c.Inversions)
		}
		for _, tr := range c.Tiers {
			if tr.Sent <= 0 {
				return fmt.Errorf("%s: cell %dx tier %s sent nothing", path, c.LoadX, tr.Priority)
			}
			if tr.OK > 0 && tr.P99Ms < tr.P50Ms {
				return fmt.Errorf("%s: cell %dx tier %s p99 < p50", path, c.LoadX, tr.Priority)
			}
		}
	}
	top := doc.Cells[len(doc.Cells)-1]
	if top.LoadX < 5 {
		return fmt.Errorf("%s: heaviest cell is %dx, want at least 5x capacity", path, top.LoadX)
	}
	if top.Shed == 0 {
		return fmt.Errorf("%s: %dx load shed nothing — the limiter did not engage", path, top.LoadX)
	}
	inter, back := top.Tiers[overload.Interactive], top.Tiers[overload.Background]
	interRate := float64(inter.OK) / float64(inter.Sent)
	backRate := float64(back.OK) / float64(back.Sent)
	if interRate <= backRate {
		return fmt.Errorf("%s: at %dx load interactive survival %.2f <= background %.2f — no priority protection",
			path, top.LoadX, interRate, backRate)
	}
	fmt.Fprintf(w, "%s: ok — %d load multiples up to %dx, interactive survives %.0f%% vs background %.0f%% at the top\n",
		path, len(doc.Cells), top.LoadX, interRate*100, backRate*100)
	return nil
}
