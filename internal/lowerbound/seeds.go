// Seed exporters: every certified construction can hand its adversary — the
// scripted message delays plus the surgically modified hardware schedules of
// the execution it built — to the worst-case search (internal/search) as an
// initial candidate. Seeded with a construction, the automated hunter starts
// at, not below, the proven bound, and mutates outward from there.

package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// AdversarySeed is a replayable worst-case adversary extracted from a
// construction: the exact delay script and hardware schedules of the
// constructed execution. Convert it to a search.Seed (the structures are
// field-identical) to inject it into a Search beam.
type AdversarySeed struct {
	// Name labels the construction the seed came from.
	Name string
	// Script is the per-message delay script of the constructed execution.
	Script map[trace.MsgKey]rat.Rat
	// Schedules are the construction's hardware schedules (rate surgery
	// included), one per node.
	Schedules []*clock.Schedule
}

// seedFromCfg extracts the script and schedules from a re-simulation config
// whose adversary is scripted.
func seedFromCfg(name string, cfg engine.Config) (AdversarySeed, error) {
	sa, ok := cfg.Adversary.(engine.ScriptedAdversary)
	if !ok {
		return AdversarySeed{}, fmt.Errorf("lowerbound: %s adversary is %T, not scripted; no seed to export", name, cfg.Adversary)
	}
	script := make(map[trace.MsgKey]rat.Rat, len(sa.Delays))
	for k, v := range sa.Delays {
		script[k] = v
	}
	return AdversarySeed{
		Name:      name,
		Script:    script,
		Schedules: append([]*clock.Schedule(nil), cfg.Schedules...),
	}, nil
}

// Seed exports the β execution's adversary: the remapped delay script plus
// the Tk/γ speed-up schedules of Lemma 6.1.
func (r *AddSkewResult) Seed() (AdversarySeed, error) {
	return seedFromCfg("add-skew β", r.BetaCfg)
}

// Seed exports the two-node Shift construction's β execution as a search
// seed: a candidate that already realizes the certified Ω(d) separation.
func (r *ShiftResult) Seed() (AdversarySeed, error) {
	return seedFromCfg("shift β", r.BetaCfg)
}

// Seed exports the final execution α_R of the main theorem's iterated
// construction: the composed delay script and rate schedules that force the
// Ω(log D / log log D) adjacent skew.
func (r *MainTheoremResult) Seed() (AdversarySeed, error) {
	return seedFromCfg("main-theorem α_R", r.FinalCfg)
}
