package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"gcs/internal/rat"
)

// table is the subset of a committed gcsbench -json table the checks read.
type table struct {
	ID     string     `json:"id"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// loadTables reads a committed gcsbench -json golden. A missing, unreadable
// or empty file is an error: a check with no reference must never pass.
func loadTables(root, name string) (map[string]table, error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	var tables []table
	if err := json.Unmarshal(data, &tables); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("golden %s: no tables", name)
	}
	out := make(map[string]table, len(tables))
	for _, t := range tables {
		out[t.ID] = t
	}
	return out, nil
}

// goldenRows indexes table id's rows by key(row), rendering each row as its
// cells joined by " | " — the same rendering the workloads give their
// results.
func goldenRows(tables map[string]table, id string, key func(row []string) string) (map[string]string, error) {
	t, ok := tables[id]
	if !ok || len(t.Rows) == 0 {
		return nil, fmt.Errorf("golden table %s missing or empty", id)
	}
	out := make(map[string]string, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return nil, fmt.Errorf("golden table %s: row %v has %d cells for %d columns", id, row, len(row), len(t.Header))
		}
		out[key(row)] = joinRow(row)
	}
	return out, nil
}

func joinRow(cells []string) string { return strings.Join(cells, " | ") }

// The cell formats below are the experiment tables' (internal/experiments),
// so a row recomputed here compares byte for byte with the committed one.

func fmtRat(r rat.Rat) string {
	s := r.String()
	if len(s) <= 10 {
		return s
	}
	return fmt.Sprintf("%.4f", r.Float64())
}

func fmtFloat(format string, v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return fmt.Sprintf(format, v)
}

func fmtBool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
