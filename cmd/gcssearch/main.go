// Command gcssearch plans and runs distributed worst-case adversary search
// campaigns (internal/dist): a campaign spec — cells × move sets ×
// generations, a JSON file — is bounded without executing a single engine
// step, served by any number of stateless workers, and driven by a
// coordinator whose merged result is byte-identical to single-process
// search.Search whatever the fleet does.
//
// Usage:
//
//	gcssearch plan -spec campaign.json [-json]
//	gcssearch worker -listen :9131 [-threads 4]
//	gcssearch run -spec campaign.json [-workers http://h1:9131,http://h2:9131]
//	gcssearch run -spec campaign.json -json     # JSON-lines progress + result
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
// alone; `worker` serves shard evaluations over the versioned JSON/HTTP
// protocol; `run` executes against the fleet (or in-process when -workers
// is empty), streaming one progress line per merged generation. Worker
// failures degrade, never corrupt: shards are reassigned to survivors, then
// evaluated locally, with the reasons in the result's notes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gcs/internal/dist"
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
	case "worker":
		err = cmdWorker(os.Args[2:])
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
  gcssearch plan   -spec campaign.json [-json]
  gcssearch worker -listen :9131 [-threads N] [-debug]
  gcssearch run    -spec campaign.json [-workers url,url,...] [-shards N]
                   [-timeout 120s] [-json] [-serve :9130] [-debug]`)
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

// loadSpec reads and validates a campaign spec file.
func loadSpec(path string) (dist.CampaignSpec, error) {
	var spec dist.CampaignSpec
	if path == "" {
		return spec, fmt.Errorf("-spec is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
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
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	plan, err := dist.PlanCampaign(spec)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(plan)
	}
	_, err = io.WriteString(out, plan.Render())
	return err
}

// cmdWorker serves shard evaluations until interrupted, then drains: SIGINT
// or SIGTERM stops accepting connections, lets in-flight shards finish, and
// logs the final metrics snapshot before exiting. A second signal kills the
// process the usual way.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("gcssearch worker", flag.ExitOnError)
	listen := fs.String("listen", ":9131", "address to serve the shard protocol on")
	threads := fs.Int("threads", 0, "local evaluation pool size (0: the spec's, or GOMAXPROCS)")
	debug := fs.Bool("debug", false, "mount /debug/pprof profiling endpoints")
	if err := parse(fs, args); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	w := &dist.Worker{Threads: *threads, Registry: reg, Debug: *debug}
	srv := &http.Server{Addr: *listen, Handler: w.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		serveErr <- err
	}()
	fmt.Fprintf(os.Stderr, "gcssearch worker: protocol v%d on %s (metrics on %s)\n",
		dist.ProtocolVersion, *listen, obs.PathMetrics)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal is immediate
	fmt.Fprintln(os.Stderr, "gcssearch worker: signal received, draining in-flight shards")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	fmt.Fprintf(os.Stderr, "gcssearch worker: final metrics\n%s", reg.Snapshot().Prometheus())
	return err
}

// cellOut is the JSON shape `run -json` emits per cell: the Result with the
// script in wire form (the in-memory script is a struct-keyed map Go's JSON
// encoder refuses).
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
	Notes          []string             `json:"notes,omitempty"`
}

// runSummary is the run's final result event: every merged cell plus the
// coordinator's metrics snapshot. The same shape is published as the last
// event on /v1/events and, with -json, appended to stdout after the per-cell
// lines — self-contained on purpose, so a streaming client needs no other
// line to reconcile counters against results.
type runSummary struct {
	Cells     []cellOut    `json:"cells"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Metrics   obs.Snapshot `json:"metrics"`
}

// cmdRun executes a campaign against the fleet (or in-process) and streams
// per-generation progress — to out always, and to attached HTTP clients on
// /v1/events when -serve is set.
func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcssearch run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec file (required)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (empty: in-process)")
	shards := fs.Int("shards", 0, "shards per generation (0: one per worker)")
	timeout := fs.Duration("timeout", dist.DefaultShardTimeout, "per-shard round-trip timeout")
	jsonOut := fs.Bool("json", false, "stream progress and results as JSON lines")
	serve := fs.String("serve", "", "address to serve live /v1/metrics and /v1/events on during the run (empty: off)")
	debug := fs.Bool("debug", false, "with -serve: mount /debug/pprof on the serve mux")
	if err := parse(fs, args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	for _, u := range urls {
		if err := dist.Ping(nil, u); err != nil {
			// A dead worker at startup is the same non-event as one dying
			// mid-campaign; say so and let the coordinator route around it.
			fmt.Fprintf(os.Stderr, "gcssearch: worker %s unreachable (will degrade): %v\n", u, err)
		}
	}

	reg := obs.NewRegistry()
	var hub *obs.Hub
	var srv *http.Server
	if *serve != "" {
		hub = obs.NewHub(64)
		mux := http.NewServeMux()
		mux.Handle(obs.PathMetrics, obs.Handler(reg))
		mux.Handle(obs.PathEvents, obs.StreamHandler(hub))
		if *debug {
			obs.AttachPprof(mux)
		}
		srv = &http.Server{Addr: *serve, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "gcssearch: -serve %s: %v\n", *serve, err)
			}
		}()
		fmt.Fprintf(os.Stderr, "gcssearch run: serving %s and %s on %s\n", obs.PathMetrics, obs.PathEvents, *serve)
	}

	enc := json.NewEncoder(out)
	coord := &dist.Coordinator{
		Spec:    spec,
		Workers: urls,
		Shards:  *shards,
		Timeout: *timeout,
		Metrics: dist.NewCoordinatorMetrics(reg),
		Progress: func(ev dist.ProgressEvent) {
			if hub != nil {
				hub.Publish(obs.Event{Scope: "run", Name: "generation", Data: ev})
			}
			if *jsonOut {
				_ = enc.Encode(ev)
			} else {
				fmt.Fprintf(out, "cell %d (%s) round %d: %d candidates in %d shard(s) (%d remote, %d local), best %s after %d evaluations\n",
					ev.Cell, ev.CellName, ev.Round, ev.Candidates, ev.Shards, ev.Remote, ev.Local, ev.Best, ev.Evaluated)
			}
		},
	}
	start := time.Now()
	cells, err := coord.Run()
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
			Notes:          res.Notes,
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
		fmt.Fprintf(out, "  script: %d scripted delays\n", len(co.Script))
		for _, note := range co.Notes {
			fmt.Fprintf(out, "  note: %s\n", note)
		}
	}
	_, err = fmt.Fprintf(out, "campaign: %d cell(s) in %s\n", len(cells), elapsed)
	return err
}
