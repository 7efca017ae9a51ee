package perf

import (
	"regexp"
	"strings"
	"testing"
)

func TestHistoryRoundTrip(t *testing.T) {
	h, err := ParseHistory(nil)
	if err != nil {
		t.Fatal(err)
	}
	h.RepoURL = "https://example.com/owner/repo"
	h.Append(HistorySeries, HistoryEntry{
		Commit: HistoryCommit{ID: "abc", Message: "m", Timestamp: "2026-08-08T00:00:00Z"},
		Date:   1754611200000,
		Tool:   "go",
		Benches: []HistoryBench{
			{Name: "BenchmarkSearchPrefixCached", Value: 9000000, Unit: "ns/op", Extra: "6 reps"},
		},
	})
	data, err := h.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "window.BENCHMARK_DATA = ") {
		t.Fatalf("rendered history is not a data.js assignment: %q", data[:40])
	}
	back, err := ParseHistory(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.LastUpdate != 1754611200000 || back.RepoURL != h.RepoURL {
		t.Fatalf("round trip lost header fields: %+v", back)
	}
	entries := back.Entries[HistorySeries]
	if len(entries) != 1 || entries[0].Commit.ID != "abc" || len(entries[0].Benches) != 1 {
		t.Fatalf("round trip lost entries: %+v", entries)
	}
	if _, err := ParseHistory([]byte("window.BENCHMARK_DATA = {nonsense")); err == nil {
		t.Fatal("corrupt history must not parse")
	}
}

func TestEntryFromBenchMediansAndFilter(t *testing.T) {
	input := `goos: linux
BenchmarkSearchPrefixCached-8  2  500000 ns/op  2000 allocs/op
BenchmarkSearchPrefixCached-8  2  900000 ns/op  2000 allocs/op
BenchmarkSearchPrefixCached-8  2  600000 ns/op  2000 allocs/op
BenchmarkUngated-8             9  100 ns/op     10 allocs/op
PASS
`
	lines, err := ParseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	e := EntryFromBench(lines, HistoryCommit{ID: "abc"}, 42, regexp.MustCompile("SearchPrefixCached"))
	if e.Date != 42 || e.Tool != "go" {
		t.Fatalf("bad entry header: %+v", e)
	}
	if len(e.Benches) != 2 {
		t.Fatalf("got %d figures, want ns + allocs for the one matching benchmark: %+v", len(e.Benches), e.Benches)
	}
	for _, b := range e.Benches {
		switch b.Unit {
		case "ns/op":
			if b.Value != 600000 {
				t.Fatalf("median ns/op = %v, want 600000", b.Value)
			}
		case "allocs/op":
			if !strings.HasSuffix(b.Name, " - allocs") || b.Value != 2000 {
				t.Fatalf("bad allocs figure: %+v", b)
			}
		default:
			t.Fatalf("unexpected unit: %+v", b)
		}
		if b.Extra != "3 reps" {
			t.Fatalf("extra = %q, want rep count", b.Extra)
		}
	}
}
