package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"diospyros/internal/telemetry"
)

type state struct{ log []string }

func appendStage(name string) Stage[*state] {
	return Stage[*state]{Name: name, Run: func(_ context.Context, s *state) error {
		s.log = append(s.log, name)
		return nil
	}}
}

func TestRunInOrderWithSpans(t *testing.T) {
	p := New(appendStage("a"), appendStage("b"), appendStage("c"))
	s := &state{}
	rec := telemetry.NewRecorder()
	if err := p.Run(context.Background(), s, rec); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(s.log); got != "[a b c]" {
		t.Fatalf("ran %v", s.log)
	}
	tr := rec.Finish()
	if len(tr.Stages) != 3 || tr.Stages[0].Name != "a" || tr.Stages[2].Name != "c" {
		t.Fatalf("spans = %+v", tr.Stages)
	}
	if got := fmt.Sprint(p.Stages()); got != "[a b c]" {
		t.Fatalf("Stages() = %v", p.Stages())
	}
}

func TestSkipOmitsStageAndSpan(t *testing.T) {
	skip := appendStage("b")
	skip.Skip = func(*state) bool { return true }
	p := New(appendStage("a"), skip, appendStage("c"))
	s := &state{}
	rec := telemetry.NewRecorder()
	if err := p.Run(context.Background(), s, rec); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(s.log); got != "[a c]" {
		t.Fatalf("ran %v", s.log)
	}
	for _, s := range rec.Finish().Stages {
		if s.Name == "b" {
			t.Error("skipped stage recorded a span")
		}
	}
}

func TestStageErrorStopsRun(t *testing.T) {
	boom := errors.New("boom")
	p := New(appendStage("a"),
		Stage[*state]{Name: "bad", Run: func(context.Context, *state) error { return boom }},
		appendStage("c"))
	s := &state{}
	err := p.Run(context.Background(), s, nil)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "bad" || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := fmt.Sprint(s.log); got != "[a]" {
		t.Fatalf("ran %v after failure", s.log)
	}
}

func TestCancelledContextStopsBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(
		Stage[*state]{Name: "a", Run: func(_ context.Context, s *state) error {
			s.log = append(s.log, "a")
			cancel() // cancelled mid-pipeline: next stage must not run
			return nil
		}},
		appendStage("b"))
	s := &state{}
	err := p.Run(ctx, s, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "b" {
		t.Fatalf("err = %v, want StageError for b", err)
	}
	if got := fmt.Sprint(s.log); got != "[a]" {
		t.Fatalf("ran %v", s.log)
	}
}

// TestCancelMidStageReturnsPromptly models a long-blocking stage (like
// equality saturation) that honors its context: cancelling while the stage
// runs must surface ctx.Err() quickly instead of waiting the stage out.
func TestCancelMidStageReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	p := New(
		Stage[*state]{Name: "block", Run: func(ctx context.Context, _ *state) error {
			close(entered)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return errors.New("stage outlived its context")
			}
		}},
		appendStage("after"))
	go func() {
		<-entered
		cancel()
	}()

	s := &state{}
	start := time.Now()
	err := p.Run(ctx, s, telemetry.NewRecorder())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "block" {
		t.Fatalf("err = %v, want StageError for the blocking stage", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(s.log) != 0 {
		t.Fatalf("stages after the cancelled one ran: %v", s.log)
	}
}

// TestStageLoggingFromContext checks the context-carried logger receives
// one debug line per executed stage, tagged with the request ID.
func TestStageLoggingFromContext(t *testing.T) {
	var buf bytes.Buffer
	ctx := telemetry.WithLogger(context.Background(),
		telemetry.NewLogger(&buf, slog.LevelDebug, true))
	ctx = telemetry.WithRequestID(ctx, "r1")

	p := New(appendStage("a"), appendStage("b"))
	if err := p.Run(ctx, &state{}, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []string{"a", "b"} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec["stage"] != want || rec["msg"] != "stage complete" || rec["request_id"] != "r1" {
			t.Errorf("line %d = %v", i, rec)
		}
	}
}

func TestNilContextAndNilRecorder(t *testing.T) {
	p := New(appendStage("a"))
	s := &state{}
	if err := p.Run(nil, s, nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal(err)
	}
	if len(s.log) != 1 {
		t.Fatalf("ran %v", s.log)
	}
}

func TestNewRejectsAnonymousStage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nameless stage")
		}
	}()
	New(Stage[*state]{Run: func(context.Context, *state) error { return nil }})
}
