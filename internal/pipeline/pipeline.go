// Package pipeline drives a staged compilation: an ordered list of named
// stages sharing one mutable state value and one context.Context. Each
// stage runs under a telemetry span (wall time + alloc delta), the context
// is checked between stages so an external cancellation stops the compile
// at the next stage boundary (stages that can block long, like equality
// saturation, additionally honor the context internally), and a failing
// or panicking stage aborts the run with its name attached to the error.
//
// The package is generic over the state type so the compiler, the bench
// harness, and future servers can each define their own state without
// this package importing any of them.
package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"diospyros/internal/telemetry"
)

// Stage is one named step of a pipeline.
type Stage[S any] struct {
	// Name labels the stage in telemetry spans and errors.
	Name string
	// Skip, when non-nil and true for the state, omits the stage (no
	// span is recorded).
	Skip func(S) bool
	// Run does the work. It receives the pipeline's context and must
	// return promptly once ctx is cancelled if it blocks for long.
	Run func(ctx context.Context, state S) error
}

// StageError wraps a stage failure with the stage's name.
type StageError struct {
	Stage string
	Err   error
}

// Error prefixes the stage's error with the stage's name.
func (e *StageError) Error() string { return fmt.Sprintf("%s: %v", e.Stage, e.Err) }

// Unwrap returns the stage's error, so errors.Is and errors.As see
// through the stage name.
func (e *StageError) Unwrap() error { return e.Err }

// PanicError is a recovered panic: Run wraps one in the StageError of the
// stage whose Run panicked.
type PanicError struct {
	Value any    // the recovered value
	Stack []byte // the panicking goroutine's stack, for logs
}

// Error names the recovered panic value; the stack is left to the caller.
func (e *PanicError) Error() string {
	return fmt.Sprintf("internal compiler error: %v", e.Value)
}

// Pipeline is an immutable ordered stage list.
type Pipeline[S any] struct {
	stages []Stage[S]
}

// New builds a pipeline from stages, run in the given order.
func New[S any](stages ...Stage[S]) *Pipeline[S] {
	for _, s := range stages {
		if s.Name == "" || s.Run == nil {
			panic("pipeline: stage needs a name and a Run function")
		}
	}
	return &Pipeline[S]{stages: stages}
}

// Stages returns the stage names in execution order.
func (p *Pipeline[S]) Stages() []string {
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name
	}
	return names
}

// Run executes the stages in order against state, recording one telemetry
// span per executed stage on rec (which may be nil). It stops at the first
// failing stage, or before the next stage once ctx is cancelled, returning
// a *StageError either way. A panic in a stage's Run is recovered into a
// *StageError wrapping a *PanicError, and that stage's span still ends.
// A goroutine a stage starts is out of reach of this recover: the stage
// must recover the goroutine's panic itself and raise it again on its own
// goroutine as a *PanicError, which Run then wraps as it is, keeping the
// goroutine's stack. Equality saturation's match workers do this.
//
// When the context carries a structured logger (telemetry.WithLogger, as
// the serve layer and the CLIs' -log flags attach), every executed stage
// emits a debug line with its duration — and a warn line on failure — so
// per-request logs show stage-level progress without any stage knowing
// about logging.
func (p *Pipeline[S]) Run(ctx context.Context, state S, rec *telemetry.Recorder) error {
	if ctx == nil {
		ctx = context.Background()
	}
	log := telemetry.LoggerFrom(ctx)
	for _, st := range p.stages {
		if ctx.Err() != nil {
			// context.Cause preserves a CancelCause (e.g. a watchdog's
			// AbortError) that plain ctx.Err() would flatten to Canceled.
			err := context.Cause(ctx)
			log.Warn("pipeline cancelled", "stage", st.Name, "err", err)
			return &StageError{Stage: st.Name, Err: err}
		}
		if st.Skip != nil && st.Skip(state) {
			continue
		}
		span := rec.StartSpan(st.Name)
		start := time.Now()
		err := st.run(ctx, state)
		span.End()
		if err != nil {
			log.Warn("stage failed", "stage", st.Name,
				"duration", time.Since(start), "err", err)
			return &StageError{Stage: st.Name, Err: err}
		}
		log.Debug("stage complete", "stage", st.Name, "duration", time.Since(start))
	}
	return nil
}

// run calls the stage's Run, recovering a panic into a *PanicError. A
// *PanicError raised again from a goroutine the stage started is returned
// as it is.
func (st Stage[S]) run(ctx context.Context, state S) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if pe, ok := p.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return st.Run(ctx, state)
}
