package engine

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Run statuses. A record's Status tells whether its metric fields are
// meaningful (StatusOK) or why they are not.
const (
	// StatusOK: the run completed and the metrics are valid.
	StatusOK = "ok"
	// StatusSkipped: the runner declined the instance (e.g. an exact
	// solver refusing an instance beyond its feasible envelope).
	StatusSkipped = "skipped"
	// StatusTimeout: the per-run timeout expired before completion.
	StatusTimeout = "timeout"
	// StatusPanic: the runner panicked; the pool isolated it.
	StatusPanic = "panic"
	// StatusError: the runner returned an error.
	StatusError = "error"
)

// Record is one (instance, strategy) evaluation — one JSONL line or CSV
// row. Seq orders records deterministically: instances in corpus order ×
// runners in matrix order, independent of worker scheduling.
type Record struct {
	Seq      int    `json:"seq"`
	Family   string `json:"family"`
	Instance string `json:"instance"`
	Index    int    `json:"index"`

	// Instance shape.
	Vertices   int   `json:"vertices"`
	Edges      int   `json:"edges"`
	Moves      int   `json:"moves"`
	MoveWeight int64 `json:"move_weight"`
	K          int   `json:"k"`
	// GreedyBefore reports greedy-k-colorability of the uncoalesced graph.
	GreedyBefore bool `json:"greedy_before"`

	Strategy string `json:"strategy"`
	Status   string `json:"status"`

	// Metrics (valid when Status == StatusOK).
	CoalescedWeight int64 `json:"coalesced_weight"`
	CoalescedMoves  int   `json:"coalesced_moves"`
	ResidualWeight  int64 `json:"residual_weight"`
	// GreedyAfter reports greedy-k-colorability of the coalesced graph
	// (for allocators: whether the run finished without spills).
	GreedyAfter bool `json:"greedy_after"`
	Spills      int  `json:"spills"`
	Rounds      int  `json:"rounds"`

	// WallNS is wall-clock duration; omitted when Config.Timing is false
	// so that result streams are byte-identical across parallelism levels.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Error carries the failure message for non-ok statuses.
	Error string `json:"error,omitempty"`
}

// Sink consumes records in Seq order as they become available.
type Sink func(Record) error

// JSONLSink streams records to w as JSON Lines.
func JSONLSink(w io.Writer) Sink {
	enc := json.NewEncoder(w)
	return func(r Record) error {
		return enc.Encode(r)
	}
}

// csvHeader is the fixed CSV column order; it matches Record field order.
var csvHeader = []string{
	"seq", "family", "instance", "index",
	"vertices", "edges", "moves", "move_weight", "k", "greedy_before",
	"strategy", "status",
	"coalesced_weight", "coalesced_moves", "residual_weight",
	"greedy_after", "spills", "rounds", "wall_ns", "error",
}

// CSVSink streams records to w as CSV, writing the header before the
// first record. The wall_ns cell is empty when timing was disabled.
func CSVSink(w io.Writer) Sink {
	cw := csv.NewWriter(w)
	wroteHeader := false
	return func(r Record) error {
		if !wroteHeader {
			if err := cw.Write(csvHeader); err != nil {
				return err
			}
			wroteHeader = true
		}
		wall := ""
		if r.WallNS != 0 {
			wall = strconv.FormatInt(r.WallNS, 10)
		}
		row := []string{
			strconv.Itoa(r.Seq), r.Family, r.Instance, strconv.Itoa(r.Index),
			strconv.Itoa(r.Vertices), strconv.Itoa(r.Edges), strconv.Itoa(r.Moves),
			strconv.FormatInt(r.MoveWeight, 10), strconv.Itoa(r.K), strconv.FormatBool(r.GreedyBefore),
			r.Strategy, r.Status,
			strconv.FormatInt(r.CoalescedWeight, 10), strconv.Itoa(r.CoalescedMoves),
			strconv.FormatInt(r.ResidualWeight, 10),
			strconv.FormatBool(r.GreedyAfter), strconv.Itoa(r.Spills), strconv.Itoa(r.Rounds),
			wall, r.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
}
