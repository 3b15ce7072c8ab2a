package telemetry

import (
	"reflect"
	"testing"
	"time"
)

func TestParseServerTiming(t *testing.T) {
	got := ParseServerTiming("queue;dur=0.012, cache;dur=0.004, compile;dur=412.331, serialize;dur=0.187")
	want := []Phase{
		{Path: "queue", Duration: 12 * time.Microsecond},
		{Path: "cache", Duration: 4 * time.Microsecond},
		{Path: "compile", Duration: 412331 * time.Microsecond},
		{Path: "serialize", Duration: 187 * time.Microsecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if ParseServerTiming("") != nil {
		t.Error("empty header should parse to nil")
	}
	if ParseServerTiming("garbage") != nil {
		t.Error("unparseable header should parse to nil")
	}
}

// TestServerTimingRoundTrip pins the codec's resolution: durations survive
// Format then Parse rounded to the microsecond, in list order, including
// sub-millisecond, zero and multi-second values.
func TestServerTimingRoundTrip(t *testing.T) {
	in := []Phase{
		{Path: "queue"},
		{Path: "cache", Duration: 4499 * time.Nanosecond},
		{Path: "compile", Duration: 2*time.Second + 345678901},
		{Path: "compile.saturate.rebuild", Duration: 500 * time.Nanosecond},
		{Path: "serialize", Duration: 187 * time.Microsecond},
	}
	h := FormatServerTiming(in)
	if want := "queue;dur=0.000, cache;dur=0.004, compile;dur=2345.679, " +
		"compile.saturate.rebuild;dur=0.001, serialize;dur=0.187"; h != want {
		t.Fatalf("header %q, want %q", h, want)
	}
	back := ParseServerTiming(h)
	if len(back) != len(in) {
		t.Fatalf("round trip kept %d of %d phases", len(back), len(in))
	}
	for i, p := range in {
		if want := p.Duration.Round(time.Microsecond); back[i].Path != p.Path || back[i].Duration != want {
			t.Errorf("entry %d: %+v, want %s %v", i, back[i], p.Path, want)
		}
	}
}
