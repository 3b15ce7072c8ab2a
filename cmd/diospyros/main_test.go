package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
)

// TestDumpSpecIsLinear holds -dump-spec to output linear in the nodes lift
// builds. The kernel doubles o[0] 40 times: a DAG of 44 nodes whose tree
// has about 2^42. Printed as a tree it would not finish; as a let-bound DAG
// it is one let per shared sum, the first one and all but the last
// doubling, and the root.
func TestDumpSpecIsLinear(t *testing.T) {
	const doublings = 40
	var src strings.Builder
	src.WriteString("kernel dbl(a[1]) -> (o[1]) {\n    o[0] = a[0] + 1.0;\n")
	for range doublings {
		src.WriteString("    o[0] = o[0] + o[0];\n")
	}
	src.WriteString("}\n")

	var out strings.Builder
	start := time.Now()
	if err := writeSpec(&out, src.String()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("dump took %v", took)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != doublings+1 || out.Len() > 40*len(lines) {
		t.Fatalf("dump is %d lines, %d bytes; want %d lets and the root, about 20 bytes each:\n%s",
			len(lines), out.Len(), doublings, out.String())
	}
	if want := fmt.Sprintf("(List (+ %%%d %%%[1]d))", doublings-1); lines[len(lines)-1] != want {
		t.Errorf("root line %q, want %q", lines[len(lines)-1], want)
	}
}

// TestErrorLineOnePrefix checks that a library error, which already
// carries the "diospyros:" prefix, prints with that prefix once, and that
// an error from elsewhere gains it.
func TestErrorLineOnePrefix(t *testing.T) {
	_, err := diospyros.CompileSource("kernel k(a[2]) -> (o[1]) { o[0] = a[2]; }", diospyros.Options{})
	if err == nil {
		t.Fatal("out-of-bounds kernel compiled")
	}
	line := errorLine(err)
	if !strings.HasPrefix(line, "diospyros: lift: 1:") || strings.Count(line, "diospyros:") != 1 {
		t.Errorf("errorLine = %q, want one \"diospyros:\" prefix before the positioned lift error", line)
	}
	if got := errorLine(errors.New("open k.dios: no such file")); got != "diospyros: open k.dios: no such file" {
		t.Errorf("errorLine = %q", got)
	}
}

// TestDumpEGraphHonorsNodeLimit checks that -dump-egraph stops where a
// compile with the same -node-limit stops, and that without the flag it
// still grows well past that limit.
func TestDumpEGraphHonorsNodeLimit(t *testing.T) {
	src, err := os.ReadFile("../../testdata/conv3x5.dios")
	if err != nil {
		t.Fatal(err)
	}
	nodes := func(opts diospyros.Options) int {
		var out strings.Builder
		if err := writeEGraph(context.Background(), &out, string(src), opts); err != nil {
			t.Fatal(err)
		}
		return strings.Count(out.String(), " [label=\"")
	}
	opts := diospyros.Options{NodeLimit: 200}
	res, err := diospyros.CompileSource(string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes(opts); got != res.Saturation.Nodes {
		t.Errorf("-node-limit 200: dump has %d nodes, the compile stopped at %d", got, res.Saturation.Nodes)
	}
	if got := nodes(diospyros.Options{}); got <= 2*res.Saturation.Nodes {
		t.Errorf("default dump has %d nodes, want well over %d", got, res.Saturation.Nodes)
	}
}
