package gcs_test

// Integration sweep: every protocol × topology × adversary combination must
// produce a valid execution satisfying the model invariants end to end.

import (
	"fmt"
	"testing"

	"gcs"
)

func sweepTopologies(t *testing.T) []*gcs.Network {
	t.Helper()
	line, err := gcs.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := gcs.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gcs.Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gcs.Star(8, gcs.R(1))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := gcs.Complete(6, gcs.R(2))
	if err != nil {
		t.Fatal(err)
	}
	return []*gcs.Network{line, ring, grid, star, complete}
}

func TestIntegrationSweep(t *testing.T) {
	rho := gcs.Frac(1, 2)
	adversaries := map[string]gcs.Adversary{
		"midpoint": gcs.Midpoint(),
		"zero":     gcs.FractionAdversary{Frac: gcs.R(0)},
		"max":      gcs.FractionAdversary{Frac: gcs.R(1)},
		"random":   gcs.HashAdversary{Seed: 9, Denom: 8},
	}
	for _, net := range sweepTopologies(t) {
		for _, proto := range gcs.AllProtocols() {
			for advName, adv := range adversaries {
				name := fmt.Sprintf("%s/%s/%s", net.Name(), proto.Name(), advName)
				net, proto, adv := net, proto, adv
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					n := net.N()
					scheds, err := gcs.DiverseSchedules(n, gcs.R(1), gcs.R(1).Add(rho.Div(gcs.R(2))), 4, 3)
					if err != nil {
						t.Fatal(err)
					}
					exec, err := gcs.Run(gcs.Config{
						Net:       net,
						Schedules: scheds,
						Adversary: adv,
						Protocol:  proto,
						Duration:  gcs.R(16),
						Rho:       rho,
					})
					if err != nil {
						t.Fatal(err)
					}
					// Requirement 1 must hold for every portfolio protocol.
					if err := gcs.CheckValidity(exec); err != nil {
						t.Fatal(err)
					}
					// Ledger/action cross-consistency.
					delivered := 0
					for _, rec := range exec.Ledger {
						d := net.Dist(rec.Key.From, rec.Key.To)
						if rec.Delay.Sign() < 0 || rec.Delay.Greater(d) {
							t.Fatalf("message %v delay %s outside [0, %s]", rec.Key, rec.Delay, d)
						}
						if exec.Delivered(&rec) {
							delivered++
						}
					}
					recvs := 0
					for i := 0; i < exec.N(); i++ {
						for _, a := range exec.NodeActions(i) {
							if a.Kind == gcs.KindRecv {
								recvs++
							}
						}
					}
					if recvs != delivered {
						t.Fatalf("recv actions %d != delivered messages %d", recvs, delivered)
					}
					// Skew symmetry and profile sanity.
					g := gcs.GlobalSkew(exec)
					if g.Skew.Sign() < 0 {
						t.Fatal("negative global skew")
					}
					for _, pt := range gcs.SkewProfile(exec) {
						if pt.MaxSkew.Greater(g.Skew) {
							t.Fatalf("profile point f̂(%s)=%s exceeds global %s", pt.Dist, pt.MaxSkew, g.Skew)
						}
					}
					// Determinism: a re-run is indistinguishable.
					again, err := gcs.Run(gcs.Config{
						Net:       net,
						Schedules: scheds,
						Adversary: adv,
						Protocol:  proto,
						Duration:  gcs.R(16),
						Rho:       rho,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := gcs.CheckIndistinguishable(exec, again); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestIntegrationRBSOnItsTopology(t *testing.T) {
	star, err := gcs.Star(10, gcs.R(1))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := gcs.Run(gcs.Config{
		Net:       star,
		Schedules: gcs.ConstantSchedules(10, gcs.R(1)),
		Adversary: gcs.HashAdversary{Seed: 2, Denom: 16},
		Protocol:  gcs.RBS(gcs.R(2), 0),
		Duration:  gcs.R(30),
		Rho:       gcs.Frac(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gcs.CheckValidity(exec); err != nil {
		t.Fatal(err)
	}
}
