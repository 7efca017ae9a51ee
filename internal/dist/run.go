package dist

import (
	"fmt"

	"gcs/internal/engine"
	"gcs/internal/search"
)

// ProgressEvent reports one merged generation: `gcssearch run` streams these
// as JSON lines.
type ProgressEvent struct {
	Cell       int    `json:"cell"`
	CellName   string `json:"cell_name"`
	Round      int    `json:"round"`
	Candidates int    `json:"candidates"`
	Evaluated  int    `json:"evaluated"` // cumulative candidate evaluations in the cell
	Best       string `json:"best"`      // best objective value merged so far (exact rational)
}

// CellResult pairs a cell with its search outcome.
type CellResult struct {
	Cell   CellSpec       `json:"cell"`
	Result *search.Result `json:"result"`
}

// Run searches every cell of the campaign in order, in this process: each
// cell is one search.Campaign stepped to the end, so its Result is
// search.Search's on the cell's options. sm and em, when non-nil, instrument
// every cell (search.Options.Metrics and EngineMetrics); progress, when
// non-nil, receives one event per merged generation. The first failing cell
// ends the run.
func (c *Campaign) Run(sm *search.Metrics, em *engine.Metrics, progress func(ProgressEvent)) ([]CellResult, error) {
	out := make([]CellResult, 0, len(c.spec.Cells))
	for i, cell := range c.spec.Cells {
		res, err := c.runCell(i, sm, em, progress)
		if err != nil {
			return nil, fmt.Errorf("dist: cell %d (%s): %w", i, cell.Label(), err)
		}
		out = append(out, CellResult{Cell: cell, Result: res})
	}
	return out, nil
}

// runCell steps cell i's search.Campaign to the end, reporting each
// generation.
func (c *Campaign) runCell(i int, sm *search.Metrics, em *engine.Metrics, progress func(ProgressEvent)) (*search.Result, error) {
	opt, err := c.CellOptions(i)
	if err != nil {
		return nil, err
	}
	opt.Metrics, opt.EngineMetrics = sm, em
	sc, err := search.NewCampaign(opt)
	if err != nil {
		return nil, err
	}
	for !sc.Done() {
		ev := ProgressEvent{Cell: i, CellName: c.spec.Cells[i].Label(), Round: sc.Round(), Candidates: sc.NumPending()}
		if err := sc.Step(); err != nil {
			return nil, err
		}
		if progress != nil {
			ev.Evaluated, ev.Best = sc.Evaluated(), sc.BestValue().String()
			progress(ev)
		}
	}
	return sc.Result()
}
