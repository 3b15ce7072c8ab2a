package diff

import (
	"strings"
	"testing"
)

// divergentPair builds a base/cur pair whose diff carries a bit of every
// section: a rule delta, an extraction flip, and a cycles delta.
func divergentPair() (Input, Input) {
	base, cur := synthInput("baseline.json"), synthInput("current")
	cur.Trace.Iterations[1].Rules[1].Applied = 2 // vec-mac: 3 -> 4 applied
	cur.Trace.Extraction.Decisions[0].Winner = "(VecAdd /2)"
	cur.Cycles = 11
	cur.Profile.Cycles = 11
	return base, cur
}

func TestDiffJSONCarriesSchema(t *testing.T) {
	base, cur := divergentPair()
	raw, err := Compare(base, cur).JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{Schema, "vec-mac", "divergences"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("JSON artifact missing %q", want)
		}
	}
}

func TestReportHTML(t *testing.T) {
	base, cur := divergentPair()
	d := Compare(base, cur)
	page, err := Report(d, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	html := string(page)
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", // self-contained page with trajectory charts
		"baseline.json", "current", // both side labels
		"vec-mac",     // the responsible rule
		"(VecAdd /2)", // the flipped winner
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestReportHTMLEquivalentRuns(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	d := Compare(base, cur)
	if !d.Empty() {
		t.Fatalf("fixture not equivalent:\n%s", d.Format())
	}
	page, err := Report(d, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "equivalent") {
		t.Error("report of an empty diff lacks the equivalence verdict")
	}
}

// TestReportValueOnlyBaseline renders the forensics shape: one side has no
// trace at all, so the charts must degrade gracefully instead of erroring.
func TestReportValueOnlyBaseline(t *testing.T) {
	base := Input{Label: "BENCH.json", Kernel: "k", Cycles: 4, PeakBytes: 1400}
	cur := synthInput("current")
	d := Compare(base, cur)
	page, err := Report(d, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "BENCH.json") {
		t.Error("report lost the value-only side's label")
	}
}
