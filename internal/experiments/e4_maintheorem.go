package experiments

import (
	"fmt"
	"math"

	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/rat"
)

// E4Options configures the main-theorem sweep.
type E4Options struct {
	Protocols []engine.Protocol
	Branch    int64
	// RoundsList sweeps R; each entry runs a line of Branch^R + 1 nodes.
	RoundsList []int
	Params     lowerbound.Params
}

// DefaultE4 returns the benchmark configuration. Branch 4 with up to 3
// rounds keeps runs in seconds; cmd/gcsbench -long extends the sweep.
func DefaultE4(protos []engine.Protocol) E4Options {
	return E4Options{
		Protocols:  protos,
		Branch:     4,
		RoundsList: []int{1, 2, 3},
		Params:     lowerbound.DefaultParams(),
	}
}

// E4Row is one construction outcome.
type E4Row struct {
	Protocol     string
	D            int
	Rounds       int
	AdjacentSkew rat.Rat
	PaperTarget  rat.Rat // R/24
	// LogShape = log D / log log D (natural logs), the asymptotic the
	// theorem proves adjacent skew must track.
	LogShape   float64
	AllTargets bool
}

// E4MainTheorem runs the Theorem 8.1 construction for each protocol at
// growing diameters and reports the adjacent-pair skew against both the
// paper's explicit R/24 milestone and the log D / log log D shape.
func E4MainTheorem(opt E4Options) ([]E4Row, *Table, error) {
	var rows []E4Row
	for _, proto := range opt.Protocols {
		for _, r := range opt.RoundsList {
			res, err := lowerbound.MainTheorem(lowerbound.MainTheoremInput{
				Protocol: proto,
				Params:   opt.Params,
				Branch:   opt.Branch,
				Rounds:   r,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e4 %s R=%d: %w", proto.Name(), r, err)
			}
			all := true
			for _, rd := range res.Rounds {
				all = all && rd.TargetMet
			}
			dd := float64(res.D - 1)
			rows = append(rows, E4Row{
				Protocol:     proto.Name(),
				D:            res.D,
				Rounds:       r,
				AdjacentSkew: res.AdjacentSkew,
				PaperTarget:  res.PaperTarget,
				LogShape:     math.Log(dd) / math.Log(math.Log(math.Max(dd, 3))),
				AllTargets:   all,
			})
		}
	}
	table := &Table{
		ID:     "E4",
		Title:  "Main theorem (8.1): adjacent-pair skew forced by the iterated construction vs Ω(log D / log log D)",
		Header: []string{"protocol", "nodes", "rounds", "adjacent skew", "target R/24", "logD/loglogD", "targets met"},
	}
	allOK := true
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol, fmt.Sprintf("%d", r.D), fmt.Sprintf("%d", r.Rounds),
			fmtRat(r.AdjacentSkew), fmtRat(r.PaperTarget),
			fmt.Sprintf("%.3f", r.LogShape), fmtBool(r.AllTargets),
		})
		allOK = allOK && r.AllTargets && r.AdjacentSkew.GreaterEq(r.PaperTarget)
	}
	if allOK {
		table.Notes = append(table.Notes,
			"paper: some adjacent pair is forced to k/24 = Ω(log D / log log D) skew; measured: every per-round Δ_k ≥ k/24·n_k milestone met and final adjacent skew ≥ R/24 — REPRODUCED (branch factor reduced from the paper's 384τf(1); per-round gain/loss certified)")
	}
	return rows, table, nil
}
