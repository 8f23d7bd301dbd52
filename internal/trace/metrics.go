package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// RankMetrics is the flat per-rank accounting row the metrics exporters
// emit — the machine-readable form of the figures' stacked bars. Package
// rt converts its Metrics into this shape (TraceRow), keeping this
// package dependency-free so both back-ends can import it.
type RankMetrics struct {
	Rank        int     `json:"rank"`
	AlignSec    float64 `json:"align_sec"`
	OverheadSec float64 `json:"overhead_sec"`
	CommSec     float64 `json:"comm_sec"`
	SyncSec     float64 `json:"sync_sec"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	BytesSent   int64   `json:"bytes_sent"`
	BytesRecv   int64   `json:"bytes_recv"`
	Msgs        int64   `json:"msgs"`
	RPCsSent    int64   `json:"rpcs_sent"`
	RPCsServed  int64   `json:"rpcs_served"`
	Supersteps  int64   `json:"supersteps"`
	MaxMem      int64   `json:"max_mem_bytes"`
	StoreBytes  int64   `json:"store_bytes"`
	PeakExch    int64   `json:"peak_exchange_bytes"`
	PeakRPC     int64   `json:"peak_rpc_bytes"`
	OOPGets     int64   `json:"oop_gets"`
	RPCPeak     int     `json:"rpc_outstanding_peak"`
	Events      int64   `json:"trace_events"`
	Dropped     int64   `json:"trace_events_dropped"`
	IntraBytes  int64   `json:"intra_bytes"`
	InterBytes  int64   `json:"inter_bytes"`

	GraphFetches   int64 `json:"graph_fetches"`
	GraphCoalesced int64 `json:"graph_coalesced"`

	// Kernel accounting under the column names of the deleted SWAR kernel
	// (see rt.Metrics): row-kernel tasks, reference-fallback tasks, and
	// the cells swept in both lane columns.
	SWARTasks     int64 `json:"swar_tasks"`
	FallbackTasks int64 `json:"fallback_tasks"`
	LaneCells     int64 `json:"lane_cells"`
	LaneSlots     int64 `json:"lane_slots"`
}

// MetricsSummary reduces the per-rank rows: totals plus the paper's
// load-imbalance metric (max/mean) for the dominant series.
type MetricsSummary struct {
	Ranks            int     `json:"ranks"`
	AlignImbalance   float64 `json:"align_imbalance"`
	ElapsedImbalance float64 `json:"elapsed_imbalance"`
	RecvImbalance    float64 `json:"recv_bytes_imbalance"`
	TotalMsgs        int64   `json:"total_msgs"`
	TotalBytesSent   int64   `json:"total_bytes_sent"`
	MaxMem           int64   `json:"max_mem_bytes"`
	MaxStoreBytes    int64   `json:"max_store_bytes"`
	MaxPeakExch      int64   `json:"max_peak_exchange_bytes"`
	TotalOOPGets     int64   `json:"total_oop_gets"`
	RPCPeak          int     `json:"rpc_outstanding_peak"`
	TotalIntraBytes  int64   `json:"total_intra_bytes"`
	TotalInterBytes  int64   `json:"total_inter_bytes"`
	TotalGraphFetch  int64   `json:"total_graph_fetches"`
	TotalGraphCoal   int64   `json:"total_graph_coalesced"`
	TotalSWARTasks   int64   `json:"total_swar_tasks"`
	TotalFallback    int64   `json:"total_fallback_tasks"`
	LaneOccupancy    float64 `json:"lane_occupancy"`
}

// imbalance is max/mean (1.0 = perfect balance, 0-mean series report 1).
func imbalance(vals []float64) float64 {
	var max, sum float64
	for _, v := range vals {
		if v > max {
			max = v
		}
		sum += v
	}
	if len(vals) == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(len(vals)))
}

// Summarize reduces rows to a MetricsSummary.
func Summarize(rows []RankMetrics) MetricsSummary {
	s := MetricsSummary{Ranks: len(rows)}
	var laneCells, laneSlots int64
	align := make([]float64, len(rows))
	elapsed := make([]float64, len(rows))
	recv := make([]float64, len(rows))
	for i, r := range rows {
		align[i], elapsed[i], recv[i] = r.AlignSec, r.ElapsedSec, float64(r.BytesRecv)
		s.TotalMsgs += r.Msgs
		s.TotalBytesSent += r.BytesSent
		if r.MaxMem > s.MaxMem {
			s.MaxMem = r.MaxMem
		}
		if r.StoreBytes > s.MaxStoreBytes {
			s.MaxStoreBytes = r.StoreBytes
		}
		if r.PeakExch > s.MaxPeakExch {
			s.MaxPeakExch = r.PeakExch
		}
		s.TotalOOPGets += r.OOPGets
		if r.RPCPeak > s.RPCPeak {
			s.RPCPeak = r.RPCPeak
		}
		s.TotalIntraBytes += r.IntraBytes
		s.TotalInterBytes += r.InterBytes
		s.TotalGraphFetch += r.GraphFetches
		s.TotalGraphCoal += r.GraphCoalesced
		s.TotalSWARTasks += r.SWARTasks
		s.TotalFallback += r.FallbackTasks
		laneCells += r.LaneCells
		laneSlots += r.LaneSlots
	}
	if laneSlots > 0 {
		s.LaneOccupancy = float64(laneCells) / float64(laneSlots)
	}
	s.AlignImbalance = imbalance(align)
	s.ElapsedImbalance = imbalance(elapsed)
	s.RecvImbalance = imbalance(recv)
	return s
}

// metricsHeader is the stable CSV schema; EXPERIMENTS tooling and the
// golden tests depend on the order.
var metricsHeader = []string{
	"rank", "align_sec", "overhead_sec", "comm_sec", "sync_sec", "elapsed_sec",
	"bytes_sent", "bytes_recv", "msgs", "rpcs_sent", "rpcs_served",
	"supersteps", "max_mem_bytes", "store_bytes", "peak_exchange_bytes",
	"peak_rpc_bytes", "oop_gets", "rpc_outstanding_peak",
	"trace_events", "trace_events_dropped",
	"intra_bytes", "inter_bytes",
	"graph_fetches", "graph_coalesced",
	"swar_tasks", "fallback_tasks", "lane_cells", "lane_slots",
}

// record renders the row under metricsHeader's column order. The stage- and
// job-scoped writers prepend their scope column to the same record, so a new
// column lands in every exporter at once.
func (r RankMetrics) record() []string {
	return []string{
		strconv.Itoa(r.Rank), fsec(r.AlignSec), fsec(r.OverheadSec),
		fsec(r.CommSec), fsec(r.SyncSec), fsec(r.ElapsedSec),
		strconv.FormatInt(r.BytesSent, 10), strconv.FormatInt(r.BytesRecv, 10),
		strconv.FormatInt(r.Msgs, 10), strconv.FormatInt(r.RPCsSent, 10),
		strconv.FormatInt(r.RPCsServed, 10), strconv.FormatInt(r.Supersteps, 10),
		strconv.FormatInt(r.MaxMem, 10), strconv.FormatInt(r.StoreBytes, 10),
		strconv.FormatInt(r.PeakExch, 10), strconv.FormatInt(r.PeakRPC, 10),
		strconv.FormatInt(r.OOPGets, 10), strconv.Itoa(r.RPCPeak),
		strconv.FormatInt(r.Events, 10), strconv.FormatInt(r.Dropped, 10),
		strconv.FormatInt(r.IntraBytes, 10), strconv.FormatInt(r.InterBytes, 10),
		strconv.FormatInt(r.GraphFetches, 10), strconv.FormatInt(r.GraphCoalesced, 10),
		strconv.FormatInt(r.SWARTasks, 10), strconv.FormatInt(r.FallbackTasks, 10),
		strconv.FormatInt(r.LaneCells, 10), strconv.FormatInt(r.LaneSlots, 10),
	}
}

func fsec(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// JobRow scopes one rank's metrics row to the job that produced it — the
// export shape of a resident, multi-tenant world, where several jobs share
// one rank pool and per-job accounting comes from snapshot/diff
// (rt.Metrics Snapshot/Sub). The watermark columns (max_mem_bytes, peak_*)
// read as world-lifetime values; everything else is the job's own delta.
type JobRow struct {
	Job string `json:"job"`
	RankMetrics
}

// StageRow scopes one rank's metrics row to the pipeline stage that
// produced it: the rank's rt.Metrics delta across the stage. elapsed_sec
// is the sum of the four category times (per-stage wall clock is not
// observable mid-region on the virtual-time backend), and the watermark
// columns read as region-lifetime values.
type StageRow struct {
	Stage string `json:"stage"`
	RankMetrics
}

// WriteMetricsCSV writes one row per rank followed by an "imbalance"
// footer row (align, elapsed and recv-bytes max/mean in their columns).
func WriteMetricsCSV(w io.Writer, rows []RankMetrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(metricsHeader); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r.record()); err != nil {
			return err
		}
	}
	s := Summarize(rows)
	foot := make([]string, len(metricsHeader))
	foot[0] = "imbalance"
	foot[1] = fmt.Sprintf("%.4f", s.AlignImbalance)
	foot[5] = fmt.Sprintf("%.4f", s.ElapsedImbalance)
	foot[7] = fmt.Sprintf("%.4f", s.RecvImbalance)
	if err := cw.Write(foot); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteMetricsJSON writes {"ranks": [...], "summary": {...}} with stable
// field order (struct-tag order).
func WriteMetricsJSON(w io.Writer, rows []RankMetrics) error {
	return writeJSON(w, struct {
		Ranks   []RankMetrics  `json:"ranks"`
		Summary MetricsSummary `json:"summary"`
	}{rows, Summarize(rows)})
}

func writeJSON(w io.Writer, doc any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// writeScopedCSV writes n rows under the stable per-rank schema prefixed
// with a scope column ("job" or "stage"); row gives the i-th row's label and
// metrics. Rows of several jobs or stages may be concatenated into one
// file; no imbalance footer is emitted, because they do not reduce
// meaningfully together.
func writeScopedCSV(w io.Writer, column string, n int, row func(i int) (string, RankMetrics)) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{column}, metricsHeader...)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		label, m := row(i)
		if err := cw.Write(append([]string{label}, m.record()...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJobMetricsCSV writes job-scoped rows with a leading "job" column.
func WriteJobMetricsCSV(w io.Writer, rows []JobRow) error {
	return writeScopedCSV(w, "job", len(rows), func(i int) (string, RankMetrics) {
		return rows[i].Job, rows[i].RankMetrics
	})
}

// WriteJobMetricsJSON writes {"jobs": [...]} with stable field order.
func WriteJobMetricsJSON(w io.Writer, rows []JobRow) error {
	return writeJSON(w, struct {
		Jobs []JobRow `json:"jobs"`
	}{rows})
}

// WriteStageMetricsCSV writes stage-scoped rows with a leading "stage"
// column.
func WriteStageMetricsCSV(w io.Writer, rows []StageRow) error {
	return writeScopedCSV(w, "stage", len(rows), func(i int) (string, RankMetrics) {
		return rows[i].Stage, rows[i].RankMetrics
	})
}

// WriteStageMetricsJSON writes {"stages": [...]} with stable field order.
func WriteStageMetricsJSON(w io.Writer, rows []StageRow) error {
	return writeJSON(w, struct {
		Stages []StageRow `json:"stages"`
	}{rows})
}

// WriteFile creates path, lets write fill it through a buffer, and closes
// it, returning the first error — flush and close included, so a full disk
// never reads as success.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteMetricsFile exports rows to the file path+suffix with the given
// writer pair: asJSON when path ends in ".json", asCSV otherwise. suffix
// carries the ".rankN" tag of per-process files, so the format follows the
// name the user gave.
func WriteMetricsFile[R any](path, suffix string, rows []R, asCSV, asJSON func(io.Writer, []R) error) error {
	return WriteFile(path+suffix, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return asJSON(w, rows)
		}
		return asCSV(w, rows)
	})
}
