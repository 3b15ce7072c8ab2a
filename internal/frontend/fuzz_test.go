package frontend

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLift pins the frontend's contract on arbitrary source: Parse either
// rejects it with an error, or Lift on the parsed kernel returns (with or
// without an error) instead of panicking. The seeds are the repository's
// example kernels plus the empty-output kernel that once reached the
// builder's "no outputs declared" panic. Lift has no evaluation budget
// yet, so a fuzzed unbounded while loop can stall a worker; run it with
// -fuzz by hand, not in CI.
func FuzzLift(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.dios")
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
	f.Add("kernel A()->(){}")
	f.Add("kernel A(a[2])->(){}")
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = Lift(k)
	})
}
