package analysis

import (
	"encoding/json"
	"io"
)

// SARIF 2.1.0 output, the interchange format GitHub code scanning (and
// most other SAST dashboards) ingest. Only the required subset of the
// schema is emitted: one run, one tool driver, a rules array built from
// the analyzers' Doc() strings, and one result per finding with a
// physical location. Paths pass through exactly as they appear on the
// findings, so callers wanting repo-relative URIs must relativize
// before encoding.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription *sarifMessage `json:"shortDescription,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF encodes the findings as a SARIF 2.1.0 log. The rules array
// covers every configured analyzer (not just those with findings), so a
// dashboard can show which checks ran even when all of them pass.
func WriteSARIF(w io.Writer, analyzers []Analyzer, findings []Finding) error {
	rules := make([]sarifRule, 0, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for _, a := range analyzers {
		index[a.Name()] = len(rules)
		rules = append(rules, sarifRule{ID: a.Name(), ShortDescription: &sarifMessage{Text: a.Doc()}})
	}

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := index[f.Rule]
		if !ok {
			// A finding from a rule outside the configured set (should
			// not happen): register a bare rule entry so the log stays
			// self-consistent.
			idx = len(rules)
			index[f.Rule] = idx
			rules = append(rules, sarifRule{ID: f.Rule})
		}
		results = append(results, sarifResult{
			RuleID:    f.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "xlf-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
