package search

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// captureLog runs the gradient protocol on a small line under the midpoint
// adversary and returns the realized decision log — a deterministic run, so
// its serialized form is golden-file stable.
func captureLog(t *testing.T) *DecisionLog {
	t.Helper()
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(ri(1)),
		clock.Constant(rf(9, 8)),
		clock.Constant(rf(7, 8)),
	}
	log := NewDecisionLog(net)
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.Gradient(algorithms.DefaultGradientParams())),
		engine.WithAdversary(engine.Midpoint()),
		engine.WithSchedules(scheds),
		engine.WithRho(rf(1, 4)),
		engine.WithObservers(log),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("run captured no decisions")
	}
	return log
}

// TestDecisionLogJSONRoundTrip: the JSON form a saved adversary is kept in
// must reproduce every decision — and the derived script — bit for bit.
func TestDecisionLogJSONRoundTrip(t *testing.T) {
	log := captureLog(t)
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	back := new(DecisionLog)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("decoded %d decisions, want %d", back.Len(), log.Len())
	}
	for i, d := range log.Decisions() {
		b := back.Decisions()[i]
		if b.Key != d.Key || !b.SendReal.Equal(d.SendReal) || !b.Delay.Equal(d.Delay) ||
			!b.Bound.Equal(d.Bound) || b.Event != d.Event {
			t.Fatalf("decision %d differs: %+v vs %+v", i, b, d)
		}
	}
	script, backScript := log.Script(), back.Script()
	if len(backScript) != len(script) {
		t.Fatalf("decoded script has %d entries, want %d", len(backScript), len(script))
	}
	for k, v := range script {
		if bv, ok := backScript[k]; !ok || !bv.Equal(v) {
			t.Fatalf("script entry %v differs: %s vs %s (present=%v)", k, v, bv, ok)
		}
	}
	// The round-trip is idempotent: re-encoding the decoded log yields the
	// same bytes.
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded log differs:\n%s\nvs\n%s", again, data)
	}
}

// TestDecisionLogGolden pins the serialized form against a committed golden
// file: the JSON form is a compatibility surface (saved adversaries, and the
// root package exports the type as gcs.DecisionLog), so accidental format
// drift must fail loudly. Regenerate with `go test ./internal/search -run Golden -update`.
func TestDecisionLogGolden(t *testing.T) {
	log := captureLog(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "decisionlog.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized DecisionLog drifted from golden file %s:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The golden bytes themselves decode into a replayable log.
	back := new(DecisionLog)
	if err := json.Unmarshal(want, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Fatalf("golden decodes to %d decisions, want %d", back.Len(), log.Len())
	}
	if adv := back.Scripted(engine.Midpoint()); len(adv.Delays) != len(log.Script()) {
		t.Fatalf("decoded log scripts %d delays, want %d", len(adv.Delays), len(log.Script()))
	}
}

// sendRec is a delivered send from node 0 to node 1 with the given sequence
// number.
func sendRec(seq uint64) trace.MsgRecord {
	return trace.MsgRecord{Key: trace.MsgKey{From: 0, To: 1, Seq: seq}, Delay: rat.FromInt(1)}
}

// logSeqs lists a log's decision sequence numbers in send order.
func logSeqs(l *DecisionLog) []uint64 {
	out := make([]uint64, l.Len())
	for i, d := range l.Decisions() {
		out[i] = d.Key.Seq
	}
	return out
}

// TestDecisionLogCloneIsolatesBranches: a clone shares its parent's prefix,
// yet each branch sees only its own appends — whether the original or the
// clone appends first, and with spare capacity in the original's storage
// (the case a shared, uncapped view would get wrong).
func TestDecisionLogCloneIsolatesBranches(t *testing.T) {
	net, err := network.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, originalFirst := range []bool{true, false} {
		orig := NewDecisionLog(net)
		for seq := uint64(0); seq < 5; seq++ { // 5 appends leave spare capacity
			orig.OnSend(sendRec(seq))
		}
		orig.OnAction(trace.Action{Kind: trace.KindRecv})
		clone := orig.Clone()
		if originalFirst {
			orig.OnSend(sendRec(100))
			clone.OnSend(sendRec(200))
		} else {
			clone.OnSend(sendRec(200))
			orig.OnSend(sendRec(100))
		}
		orig.OnSend(sendRec(101))
		clone.OnSend(sendRec(201))
		want := map[*DecisionLog][]uint64{
			orig:  {0, 1, 2, 3, 4, 100, 101},
			clone: {0, 1, 2, 3, 4, 200, 201},
		}
		for l, w := range want {
			if got := logSeqs(l); !slices.Equal(got, w) {
				t.Fatalf("originalFirst=%v: %s decisions %v, want %v", originalFirst, l, got, w)
			}
		}
		if d := clone.Decisions()[5]; d.Event != 1 {
			t.Fatalf("originalFirst=%v: clone's first own decision at event %d, want 1 (the event count carries over)", originalFirst, d.Event)
		}
	}
}

// TestDecisionLogCloneCostIndependentOfLength: a fork's log clone shares the
// trunk's decisions instead of copying them, so it costs the same at 10 and
// at 10,000 decisions — the log header and nothing else.
func TestDecisionLogCloneCostIndependentOfLength(t *testing.T) {
	net, err := network.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		l := NewDecisionLog(net)
		for seq := 0; seq < n; seq++ {
			l.OnSend(sendRec(uint64(seq)))
		}
		var sink *DecisionLog
		a := testing.AllocsPerRun(20, func() { sink = l.Clone() })
		if sink.Len() != n {
			t.Fatalf("clone of %d decisions has %d", n, sink.Len())
		}
		return a
	}
	small, large := allocs(10), allocs(10000)
	if small != large || large > 1 {
		t.Fatalf("Clone allocs: %v at 10 decisions, %v at 10,000; want equal and at most 1 (the header)", small, large)
	}
}
