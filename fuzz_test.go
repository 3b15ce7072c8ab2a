package diospyros

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diospyros/internal/pipeline"
)

// FuzzCompile drives the whole pipeline on arbitrary source. A compile may
// fail (the source does not parse or lift, a budget stops it, a target
// cannot lower it), but no stage may panic and translation validation may
// never reject the program a target extracted. The seeds are the kernels
// under testdata, which plain go test runs, and infSeed.
func FuzzCompile(f *testing.F) {
	paths, err := filepath.Glob("testdata/*.dios")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed kernels under testdata (err %v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(infSeed)
	opts := Options{
		NodeLimit:     20000,
		MaxIterations: 8,
		Timeout:       2 * time.Second,
		Validate:      true,
		Targets:       []string{"fg3lite-4", "scalar"},
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := CompileSource(src, opts)
		var pe *pipeline.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("%v\n%s\nsource:\n%s", err, pe.Stack, src)
		}
		var se *pipeline.StageError
		if errors.As(err, &se) && se.Stage == StageValidate {
			t.Fatalf("%v\nsource:\n%s", err, src)
		}
	})
}

// infSeed multiplies two literals to a product past float64's range: lift
// must keep the product a term, not fold it to a +Inf literal that
// validation rejects.
const infSeed = `kernel k(a[4]) -> (o[4]) { for i in 0..4 { o[i] = a[i] + 1e308 * 10.0; } }`
