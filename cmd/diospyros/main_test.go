package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
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
