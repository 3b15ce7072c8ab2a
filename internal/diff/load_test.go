package diff

import (
	"encoding/json"
	"strings"
	"testing"

	"diospyros/internal/telemetry"
)

func TestLoadArtifactTraceObject(t *testing.T) {
	raw, err := json.Marshal(synthTrace())
	if err != nil {
		t.Fatal(err)
	}
	a, err := LoadArtifact("trace.json", raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Inputs) != 1 || a.Inputs[0].Trace == nil {
		t.Fatalf("inputs = %+v, want one traced entry", a.Inputs)
	}
	if _, ok := a.Find(""); !ok {
		t.Error("empty kernel ID does not match the single bare-trace entry")
	}
	if _, ok := a.Find("nope"); ok {
		t.Error("Find matched a kernel the artifact does not hold")
	}
}

func TestLoadArtifactBenchRows(t *testing.T) {
	raw := []byte(`[
		{"id": "A", "cycles": 10, "peak_egraph_bytes": 100},
		{"id": "B", "cycles": 20, "peak_egraph_bytes": 200}
	]`)
	a, err := LoadArtifact("bench.json", raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Kernels(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("kernels = %v, want [A B]", got)
	}
	in, ok := a.Find("B")
	if !ok || in.Cycles != 20 || in.PeakBytes != 200 || in.Trace != nil {
		t.Fatalf("Find(B) = %+v, %v", in, ok)
	}
}

func TestLoadArtifactRejectsStaleTraces(t *testing.T) {
	stale := synthTrace()
	stale.Schema = ""
	staleRaw, _ := json.Marshal(stale)

	wrong := synthTrace()
	wrong.Schema = "diospyros/trace/v0"
	wrongRaw, _ := json.Marshal(wrong)

	// v1 traces predate the gauges' rule rows.
	v1 := synthTrace()
	v1.Schema = "diospyros/trace/v1"
	v1Raw, _ := json.Marshal(v1)

	// A bench row embedding a stale trace is rejected too, naming the kernel.
	row, _ := json.Marshal([]map[string]any{{"id": "MatMul 2x2 2x2", "cycles": 9,
		"trace": json.RawMessage(staleRaw)}})

	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"missing stamp", staleRaw, "no schema stamp"},
		{"wrong version", wrongRaw, telemetry.TraceSchema},
		{"v1 trace", v1Raw, telemetry.TraceSchema},
		{"stale row trace", row, "MatMul 2x2 2x2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadArtifact("artifact.json", tc.raw)
			if err == nil {
				t.Fatal("stale artifact accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLoadArtifactErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"empty", ""},
		{"whitespace", "  \n\t"},
		{"scalar", "42"},
		{"empty array", "[]"},
		{"row without id", `[{"cycles": 10}]`},
		{"malformed rows", `[{"id": "A"`},
		{"malformed trace", `{"schema":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadArtifact("bad.json", []byte(tc.raw)); err == nil {
				t.Errorf("accepted %q", tc.raw)
			}
		})
	}
}
