package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkFinding(file string, line int, analyzer, category, msg string) Finding {
	return Finding{
		Pos:      token.Position{Filename: file, Line: line, Column: 2},
		Analyzer: analyzer, Category: category, Message: msg,
	}
}

func TestBaselineFilterMatchesWithoutLineNumbers(t *testing.T) {
	root := "/repo"
	bl := &Baseline{Findings: []BaselineEntry{
		{File: "internal/server/http.go", Analyzer: "lockorder", Category: "lockcycle", Message: "boom"},
	}}
	// Same finding at two different lines: the entry covers one (line
	// numbers are not part of the key), the other still fails.
	findings := []Finding{
		mkFinding("/repo/internal/server/http.go", 10, "lockorder", "lockcycle", "boom"),
		mkFinding("/repo/internal/server/http.go", 99, "lockorder", "lockcycle", "boom"),
	}
	kept, suppressed := bl.Filter(root, findings)
	if len(suppressed) != 1 || len(kept) != 1 {
		t.Fatalf("kept %d suppressed %d, want 1 and 1", len(kept), len(suppressed))
	}
	if kept[0].Pos.Line != 99 {
		t.Errorf("kept the wrong occurrence: line %d", kept[0].Pos.Line)
	}
}

func TestBaselineFilterDistinguishesCategoryAndFile(t *testing.T) {
	root := "/repo"
	bl := &Baseline{Findings: []BaselineEntry{
		{File: "a.go", Analyzer: "lockorder", Category: "lockcycle", Message: "m"},
	}}
	findings := []Finding{
		mkFinding("/repo/a.go", 1, "lockorder", "lockinvert", "m"), // category differs
		mkFinding("/repo/b.go", 1, "lockorder", "lockcycle", "m"),  // file differs
	}
	kept, suppressed := bl.Filter(root, findings)
	if len(suppressed) != 0 || len(kept) != 2 {
		t.Fatalf("kept %d suppressed %d, want 2 and 0", len(kept), len(suppressed))
	}
}

func TestLoadBaselineValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadBaseline(write("ok.json", `{"findings": []}`)); err != nil {
		t.Errorf("empty baseline rejected: %v", err)
	}
	if _, err := LoadBaseline(write("nokey.json", `{}`)); err == nil {
		t.Error("baseline without findings key accepted")
	}
	if _, err := LoadBaseline(write("typo.json", `{"finding": []}`)); err == nil {
		t.Error("baseline with unknown key accepted")
	}
	if _, err := LoadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
}

func TestEncodeJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, "/repo", nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestBaselineRoundTripFromFixture proves the JSON a real run emits can
// be committed verbatim as a baseline that then suppresses exactly
// those findings: the migration-window workflow.
func TestBaselineRoundTripFromFixture(t *testing.T) {
	findings, _ := runFixture(t, "fixtures/lockorder", LockOrderAnalyzer)
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, root, findings); err != nil {
		t.Fatal(err)
	}
	var entries []BaselineEntry
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("baseline entries do not round-trip through the JSON output: %v", err)
	}
	bl := &Baseline{Findings: entries}
	kept, suppressed := bl.Filter(root, findings)
	if len(kept) != 0 {
		t.Errorf("%d finding(s) escaped their own baseline: %v", len(kept), kept)
	}
	if len(suppressed) != len(findings) {
		t.Errorf("suppressed %d of %d", len(suppressed), len(findings))
	}
}

// TestCommittedBaselineIsEmpty enforces the clean-repo policy: the
// committed baseline must stay empty; new findings are fixed or
// //flepvet:allow'd with a reason, never baselined permanently.
func TestCommittedBaselineIsEmpty(t *testing.T) {
	bl, err := LoadBaseline(filepath.Join("..", "..", ".flepvet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Findings) != 0 {
		t.Errorf("committed baseline carries %d finding(s); fix or //flepvet:allow them instead", len(bl.Findings))
	}
}
