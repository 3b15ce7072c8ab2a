package diospyros

import (
	"strings"
	"testing"
	"time"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/frontend"
)

// TestSharedSpecStaysLinear runs every stage that reads a lifted spec on
// one whose tree is about 2^41 nodes and whose DAG is 44: lift, ingest,
// extraction, lowering, validation and evaluation must each visit a shared
// node once. A stage that expands the sharing would not finish, so each
// call must return within its bound.
func TestSharedSpecStaysLinear(t *testing.T) {
	const doublings = 40
	var src strings.Builder
	src.WriteString("kernel dbl(a[1]) -> (o[1]) {\n    o[0] = a[0] + 1.0;\n")
	for range doublings {
		src.WriteString("    o[0] = o[0] + o[0];\n")
	}
	src.WriteString("}\n")

	k, err := frontend.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	l, err := frontend.Lift(k)
	if err != nil {
		t.Fatal(err)
	}
	within(t, time.Second, "Spec.Size", func() {
		// a[0], 1.0, the first sum, 40 doublings and the List.
		if n := l.Spec.Size(); n != doublings+4 {
			t.Errorf("Spec.Size = %d, want %d", n, doublings+4)
		}
	})
	within(t, time.Second, "Spec.Eval", func() {
		env := expr.NewEnv()
		env.Arrays["a"] = []float64{0.5}
		v, err := l.Spec.Eval(env)
		if want := 1.5 * (1 << doublings); err != nil || v.AsSlice()[0] != want {
			t.Errorf("Spec.Eval = %v, %v; want %g", v.AsSlice(), err, want)
		}
	})
	within(t, time.Second, "AddExpr", func() {
		g := egraph.New()
		g.AddExpr(l.Spec)
		if n := g.NumClasses(); n != doublings+4 {
			t.Errorf("AddExpr made %d classes, want %d", n, doublings+4)
		}
	})
	within(t, 30*time.Second, "CompileSource", func() {
		opts := testOpts()
		opts.Targets = []string{"fg3lite-4", "fg3lite-8", "scalar"}
		opts.Validate = true
		r, err := CompileSource(src.String(), opts)
		if err != nil {
			t.Error(err)
			return
		}
		for _, tr := range r.Targets {
			if !tr.Validated {
				t.Errorf("%s: not validated", tr.Target)
			}
		}
	})
}

// within runs f and fails the test if it does not return within d. f
// reports with t.Error, not t.Fatal: it runs on its own goroutine.
func within(t *testing.T, d time.Duration, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		t.Logf("%s: %v", name, time.Since(start))
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", name, d)
	}
}
