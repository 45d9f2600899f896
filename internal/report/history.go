package report

import (
	"encoding/json"
	"os"

	"mpgraph/internal/core"
	"mpgraph/internal/obsv"
)

// HistoryEntry is one analysis run's archived summary — the "history
// of analysis experiments" the paper's Section 7 calls for. Entries
// append to a JSON-lines file so runs accumulate across invocations
// and stay grep/jq-friendly.
type HistoryEntry struct {
	// Label is free-form (tool invocation, scenario name).
	Label string `json:"label"`
	// Traces identifies the analyzed trace set (a directory, usually).
	Traces string `json:"traces,omitempty"`
	// Model describes the perturbation model (distribution specs).
	Model map[string]string `json:"model,omitempty"`
	// Ranks and Events size the run.
	Ranks  int   `json:"ranks"`
	Events int64 `json:"events"`
	// MaxDelay, MeanDelay and MakespanDelay are the headline results.
	MaxDelay      float64 `json:"max_delay"`
	MeanDelay     float64 `json:"mean_delay"`
	MakespanDelay float64 `json:"makespan_delay"`
	// Warnings carries the analysis caveats.
	Warnings []string `json:"warnings,omitempty"`
	// DurationMS is the wall time of the run that produced the entry.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// PhaseMS breaks DurationMS down by instrumented phase (an
	// obsv.Snapshot's timer totals, e.g. core_analyze).
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
}

// AttachTiming records the run's wall time and the per-phase totals of
// a metrics snapshot on the entry.
func (e *HistoryEntry) AttachTiming(durationMS float64, snap obsv.Snapshot) {
	e.DurationMS = durationMS
	if ms := snap.PhaseMS(); len(ms) > 0 {
		e.PhaseMS = ms
	}
}

// NewHistoryEntry summarizes an analysis result.
func NewHistoryEntry(label, traces string, model map[string]string, res *core.Result) HistoryEntry {
	return HistoryEntry{
		Label:         label,
		Traces:        traces,
		Model:         model,
		Ranks:         res.NRanks,
		Events:        res.Events,
		MaxDelay:      res.MaxFinalDelay,
		MeanDelay:     res.MeanFinalDelay,
		MakespanDelay: res.MakespanDelay,
		Warnings:      res.Warnings,
	}
}

// AppendHistory appends the entry to a JSON-lines file, creating it if
// needed.
func AppendHistory(path string, e HistoryEntry) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Close()
}
