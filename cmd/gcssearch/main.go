// Command gcssearch plans and runs worst-case adversary search campaigns
// (internal/dist): a campaign spec — cells × move sets × generations, a JSON
// file — is bounded without executing a single engine step, and searched in
// this process, cell after cell, by the same search.Search the experiments
// run. It is the one search command line: a single search is a one-cell
// spec.
//
// Usage:
//
//	gcssearch plan -spec campaign.json [-json]
//	gcssearch run -spec campaign.json [-json]   # -json: JSON-lines progress + result
//	gcssearch run -spec campaign.json -serve :9130 [-debug]
//
// A campaign spec looks like:
//
//	{
//	  "protocol": "gradient",
//	  "cells": [{"topology": "two-node", "diameter": "16", "duration": "32"}],
//	  "rho": "1/2",
//	  "rounds": 3, "beam": 2, "delay_mutations": 8, "mutate_tail": "1/2"
//	}
//
// (Rationals are exact strings: "16", "1/2".) `plan` bounds each cell's
// generations and per-generation candidates from the move-set arithmetic
// alone; `run` searches every cell, printing one progress line per merged
// generation and then each cell's winner: value, witness, rate overrides and
// script size (-json adds the script itself, as search.EncodeScript entries).
// With -serve it publishes its metrics on /v1/metrics and its progress on
// /v1/events while it runs; -debug, which needs -serve, adds /debug/pprof.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"gcs/internal/dist"
	"gcs/internal/engine"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/search"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = cmdPlan(os.Args[2:], os.Stdout)
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcssearch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gcssearch plan -spec campaign.json [-json]
  gcssearch run  -spec campaign.json [-json] [-serve :9130] [-debug]`)
}

// parse parses a subcommand's flags and refuses anything left over: flag
// parsing stops at the first argument that is not a flag, so a stray word
// would otherwise end the flags in silence.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// loadSpec reads a campaign spec file and validates it, building each
// cell's network once for the whole command.
func loadSpec(path string) (*dist.Campaign, error) {
	if path == "" {
		return nil, fmt.Errorf("-spec is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := dist.DecodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	c, err := dist.NewCampaign(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// cmdPlan bounds a campaign's generations and candidates without executing
// any engine step.
func cmdPlan(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcssearch plan", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec file (required)")
	jsonOut := fs.Bool("json", false, "emit the plan as JSON")
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	plan := c.Plan()
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(plan)
	}
	_, err = io.WriteString(out, plan.Render())
	return err
}

// cellOut is the JSON shape `run -json` emits per cell: the Result with the
// script as sorted entries (the in-memory script is a struct-keyed map Go's
// JSON encoder refuses).
type cellOut struct {
	Cell           dist.CellSpec        `json:"cell"`
	Baseline       rat.Rat              `json:"baseline"`
	Best           rat.Rat              `json:"best"`
	BestCandidate  int                  `json:"best_candidate"`
	WitnessI       int                  `json:"witness_i"`
	WitnessJ       int                  `json:"witness_j"`
	WitnessAt      rat.Rat              `json:"witness_at"`
	Script         []search.ScriptEntry `json:"script"`
	Rates          []rat.Rat            `json:"rates"`
	Rounds         int                  `json:"rounds"`
	Evaluated      int                  `json:"evaluated"`
	EngineSteps    uint64               `json:"engine_steps"`
	CandidateSteps uint64               `json:"candidate_steps"`
}

// runSummary is the run's final result event: every cell plus the run's
// metrics snapshot. The same shape is published as the last event on
// /v1/events and, with -json, appended to stdout after the per-cell lines —
// self-contained on purpose, so a streaming client needs no other line to
// reconcile counters against results.
type runSummary struct {
	Cells     []cellOut    `json:"cells"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Metrics   obs.Snapshot `json:"metrics"`
}

// serveMux routes what `run -serve` publishes: the registry on /v1/metrics,
// the hub's events on /v1/events, and /debug/pprof only with debug.
func serveMux(reg *obs.Registry, hub *obs.Hub, debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(obs.PathMetrics, obs.Handler(reg))
	mux.Handle(obs.PathEvents, obs.StreamHandler(hub))
	if debug {
		obs.AttachPprof(mux)
	}
	return mux
}

// rateOverrides lists the nodes whose rate the winning candidate overrides
// (a zero rate keeps the node's base schedule), or "none".
func rateOverrides(rates []rat.Rat) string {
	var flips []string
	for i, r := range rates {
		if !r.IsZero() {
			flips = append(flips, fmt.Sprintf("node %d → %s", i, r))
		}
	}
	if len(flips) == 0 {
		return "none"
	}
	return strings.Join(flips, ", ")
}

// cmdRun searches a campaign in process and streams per-generation progress
// — to out always, and to attached HTTP clients on /v1/events when -serve is
// set.
func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcssearch run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec file (required)")
	jsonOut := fs.Bool("json", false, "stream progress and results as JSON lines")
	serve := fs.String("serve", "", "address to serve live /v1/metrics and /v1/events on during the run (empty: off)")
	debug := fs.Bool("debug", false, "with -serve: mount /debug/pprof on the serve mux")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *debug && *serve == "" {
		return fmt.Errorf("-debug mounts pprof on the -serve mux; add -serve or drop -debug")
	}
	c, err := loadSpec(*specPath)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	var hub *obs.Hub
	var srv *http.Server
	if *serve != "" {
		// Bind before anything runs or is announced: the line names the
		// address actually served, and a bind failure announces nothing.
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return fmt.Errorf("-serve %s: %w", *serve, err)
		}
		hub = obs.NewHub(64)
		srv = &http.Server{Handler: serveMux(reg, hub, *debug)}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "gcssearch: -serve %s: %v\n", ln.Addr(), err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gcssearch run: serving %s and %s on %s\n", obs.PathMetrics, obs.PathEvents, ln.Addr())
	}

	enc := json.NewEncoder(out)
	progress := func(ev dist.ProgressEvent) {
		if hub != nil {
			hub.Publish(obs.Event{Scope: "run", Name: "generation", Data: ev})
		}
		if *jsonOut {
			_ = enc.Encode(ev)
		} else {
			fmt.Fprintf(out, "cell %d (%s) round %d: %d candidates, best %s after %d evaluations\n",
				ev.Cell, ev.CellName, ev.Round, ev.Candidates, ev.Best, ev.Evaluated)
		}
	}
	start := time.Now()
	cells, err := c.Run(search.NewMetrics(reg), engine.NewMetrics(reg), progress)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	outs := make([]cellOut, 0, len(cells))
	for _, cr := range cells {
		res := cr.Result
		outs = append(outs, cellOut{
			Cell:           cr.Cell,
			Baseline:       res.Baseline,
			Best:           res.Best,
			BestCandidate:  res.BestCandidate,
			WitnessI:       res.Witness.I,
			WitnessJ:       res.Witness.J,
			WitnessAt:      res.Witness.At,
			Script:         search.EncodeScript(res.Script),
			Rates:          res.Rates,
			Rounds:         res.Rounds,
			Evaluated:      res.Evaluated,
			EngineSteps:    res.EngineSteps,
			CandidateSteps: res.CandidateSteps,
		})
	}
	summary := runSummary{Cells: outs, ElapsedMS: elapsed.Milliseconds(), Metrics: reg.Snapshot()}
	if hub != nil {
		hub.Publish(obs.Event{Scope: "run", Name: "result", Data: summary})
		hub.Close()
	}
	if srv != nil {
		// Shutdown waits for active stream handlers, so attached clients
		// receive the final result event before the listener goes away.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(drainCtx)
	}

	if *jsonOut {
		for _, co := range outs {
			_ = enc.Encode(co)
		}
		return enc.Encode(summary)
	}
	for i, co := range outs {
		fmt.Fprintf(out, "cell %d %s:\n", i, co.Cell.Label())
		fmt.Fprintf(out, "  baseline %s, searched worst case %s (candidate %d)\n", co.Baseline, co.Best, co.BestCandidate)
		fmt.Fprintf(out, "  witness pair (%d, %d) at t=%s\n", co.WitnessI, co.WitnessJ, co.WitnessAt)
		fmt.Fprintf(out, "  %d rounds, %d candidates, %d engine steps (%d re-simulated)\n",
			co.Rounds, co.Evaluated, co.EngineSteps, co.CandidateSteps)
		fmt.Fprintf(out, "  rate overrides: %s\n", rateOverrides(co.Rates))
		fmt.Fprintf(out, "  script: %d scripted delays\n", len(co.Script))
	}
	_, err = fmt.Fprintf(out, "campaign: %d cell(s) in %s\n", len(cells), elapsed)
	return err
}
