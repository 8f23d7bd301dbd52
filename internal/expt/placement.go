// Placement study (DESIGN.md §17): how much cross-node traffic does
// topology-aware rank placement reclassify onto the cheap intra-node tier?
// The analytic half prices the planned overlap exchange to the 32K-rank
// regime through sim.PriceExchange (identity vs partition.PlaceByTraffic,
// both under the hierarchical leader-relay plan); the measured half runs
// the real dist backend at small scale and reads the runtime
// IntraBytes/InterBytes counters, pinning the model to observed wire
// bytes. Placement never moves a task or a byte of payload — results are
// checked identical — it only changes which rank pairs share a node.
package expt

import (
	"fmt"
	"reflect"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/partition"
	"gnbody/internal/sim"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// PlacementDensity is the candidate-tasks-per-read density of the
// placement study workloads. At the paper's full Table-1 density every
// rank references nearly every remote read, the traffic matrix saturates
// to uniform, and no placement can beat any other; genome-local overlap
// structure survives aggregation only when candidates stay a modest
// multiple of the read count. 30 keeps the Zipf degree skew (hub reads
// well past the cache-acceptance threshold) while leaving the matrix
// clustered enough for placement to matter.
const PlacementDensity = 30

// placementBase synthesizes a placement-study workload: the preset at
// PlacementDensity candidates per read, before the scatter relabeling.
func placementBase(preset workload.Preset, scale int, seed int64) (*workload.Workload, error) {
	preset.PaperTasks = int64(preset.PaperReads) * PlacementDensity
	return workload.Synthesize(preset, scale, seed)
}

// PlacementWorkload builds the full placement acceptance workload for a
// p-rank run: reduced-density synthesis plus the genome-block scatter that
// makes consecutive-rank grouping pessimal (workload.ScatterGenomeBlocks).
// The conformance and acceptance tests share this exact construction.
func PlacementWorkload(preset workload.Preset, scale int, seed int64, p int) (*workload.Workload, error) {
	w, err := placementBase(preset, scale, seed)
	if err != nil {
		return nil, err
	}
	return workload.ScatterGenomeBlocks(w, p), nil
}

// runPlacedBSP runs the model-mode BSP overlap pass on the loopback dist
// backend under a placement and reduces the tier byte counters.
func runPlacedBSP(w *workload.Workload, ranks, nodeSize int, pl []int, cacheBudget int64) (hits []core.Hit, intra, inter int64, err error) {
	pt, byRank, err := ownerTasks(w.Lens, w.Tasks, ranks)
	if err != nil {
		return nil, 0, 0, err
	}
	world, err := dist.NewWorld(dist.Config{P: ranks, NodeSize: nodeSize, Placement: pl})
	if err != nil {
		return nil, 0, 0, err
	}
	defer world.Close()
	results, err := alignPass(world, BSP, len(byRank), phantomInputs(pt, w.Lens, byRank), core.Config{
		Exec:     core.ModelExecutor{Model: align.DefaultCostModel(), Meta: w.Meta()},
		MinScore: 1, CacheBudget: cacheBudget})
	if err != nil {
		return nil, 0, 0, err
	}
	for rk := 0; rk < ranks; rk++ {
		hits = append(hits, results[rk].Hits...)
		intra += world.Metrics(rk).IntraBytes
		inter += world.Metrics(rk).InterBytes
	}
	core.SortHits(hits)
	return hits, intra, inter, nil
}

// PlacementSweep builds the placement study table: analytic rows price the
// planned exchange (Human CCS, one rank per KNL core) from 128 to 32768
// ranks, identity vs traffic-aware; measured rows run the E. coli study
// workload for real on the dist backend at 8 ranks in 2 nodes of 4 and
// must produce byte-identical hits under both placements.
func PlacementSweep(p Params) (Result, error) {
	sweepScale := p.ScaleHumanCCS
	if sweepScale <= 0 {
		// The top sweep row needs at least one read per rank: Human CCS at
		// 1/32 keeps 35901 reads ≥ 32768 ranks.
		sweepScale = 32
	}
	p = p.defaults()
	const rpn = 64 // one simulated rank per KNL core
	m := sim.CoriKNL()

	t := &stats.Table{
		Title: fmt.Sprintf("Placement study: identity vs traffic-aware rank→node grouping (density %d, hierarchical)", PlacementDensity),
		Headers: []string{"kind", "workload", "nodes", "ranks", "placement",
			"intra", "inter", "inter-drop", "exch", "hits"},
	}

	w0, err := placementBase(workload.HumanCCS, sweepScale, p.Seed)
	if err != nil {
		return Result{}, err
	}
	for _, nodes := range p.nodesOr([]int{2, 8, 32, 128, 512}) {
		ranks := nodes * rpn
		if ranks > len(w0.Lens) {
			t.AddRow("analytic", w0.Preset.Name, fmt.Sprint(nodes), fmt.Sprint(ranks),
				"-", "-", "-", "-", "skipped: ranks > reads", "-")
			continue
		}
		w := workload.ScatterGenomeBlocks(w0, ranks)
		pt, byRank, err := ownerTasks(w.Lens, w.Tasks, ranks)
		if err != nil {
			return Result{}, err
		}
		pairs := partition.TrafficMatrix(byRank, pt, w.Lens)
		pl := partition.PlaceByTraffic(pairs, ranks, rpn)
		var idInter int64
		for _, row := range []struct {
			label string
			slot  []int
		}{{"identity", nil}, {"traffic", pl}} {
			elapsed, intra, inter, err := sim.PriceExchange(m, nodes, rpn, row.slot, pairs, true)
			if err != nil {
				return Result{}, err
			}
			drop := "-"
			if row.slot == nil {
				idInter = inter
			} else if idInter > 0 {
				drop = stats.FmtPct(1 - float64(inter)/float64(idInter))
			}
			t.AddRow("analytic", w.Preset.Name, fmt.Sprint(nodes), fmt.Sprint(ranks),
				row.label, stats.FmtBytes(intra), stats.FmtBytes(inter), drop,
				stats.FmtDur(elapsed), "-")
		}
	}

	// Measured rows: the acceptance configuration, for real.
	const mRanks, mNS = 8, 4
	wm, err := PlacementWorkload(workload.EColi30x, 40, p.Seed, mRanks)
	if err != nil {
		return Result{}, err
	}
	pt, byRank, err := ownerTasks(wm.Lens, wm.Tasks, mRanks)
	if err != nil {
		return Result{}, err
	}
	pl := partition.PlaceByTraffic(partition.TrafficMatrix(byRank, pt, wm.Lens), mRanks, mNS)
	idHits, idIntra, idInter, err := runPlacedBSP(wm, mRanks, mNS, nil, p.CacheBudget)
	if err != nil {
		return Result{}, err
	}
	trHits, trIntra, trInter, err := runPlacedBSP(wm, mRanks, mNS, pl, p.CacheBudget)
	if err != nil {
		return Result{}, err
	}
	if !reflect.DeepEqual(idHits, trHits) {
		return Result{}, fmt.Errorf("expt: placement changed hits: %d vs %d", len(trHits), len(idHits))
	}
	drop := "-"
	if idInter > 0 {
		drop = stats.FmtPct(1 - float64(trInter)/float64(idInter))
	}
	t.AddRow("measured", wm.Preset.Name, "2", fmt.Sprint(mRanks), "identity",
		stats.FmtBytes(idIntra), stats.FmtBytes(idInter), "-", "-", fmt.Sprint(len(idHits)))
	t.AddRow("measured", wm.Preset.Name, "2", fmt.Sprint(mRanks), "traffic",
		stats.FmtBytes(trIntra), stats.FmtBytes(trInter), drop, "-", fmt.Sprint(len(trHits)))
	return Result{Tables: []*stats.Table{t}}, nil
}
