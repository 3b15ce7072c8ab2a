package diospyros

import (
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// The flight-recorder glue: converts the saturation report's peak
// footprint (internal/egraph), the extraction decision trace
// (internal/extract) and the simulator's cycle profile into the
// trace-serializable telemetry types, which is what the -report HTML and
// the -json trace consume. The search itself needs no conversion: its
// record is the iteration gauges, rule rows included.

// memoryTraceFromReport converts the saturation report's peak footprint
// into the trace-serializable memory record (telemetry cannot import the
// e-graph without a cycle). Recorder.Finish fills the heap fields.
func memoryTraceFromReport(rep egraph.Report) *telemetry.MemoryTrace {
	fp := rep.PeakFootprint
	mt := &telemetry.MemoryTrace{
		PeakBytes:     fp.Total,
		PeakIteration: rep.PeakIteration,
	}
	for _, c := range []struct {
		name string
		comp egraph.FootprintComponent
	}{
		{"e-nodes", fp.Nodes},
		{"hashcons", fp.Hashcons},
		{"symbols", fp.Symbols},
		{"union-find", fp.UnionFind},
		{"classes", fp.Classes},
		{"parents", fp.Parents},
		{"provenance", fp.Provenance},
	} {
		if c.comp.Entries == 0 && c.comp.Bytes == 0 {
			continue
		}
		mt.Components = append(mt.Components, telemetry.MemoryComponent{
			Name: c.name, Entries: c.comp.Entries, Bytes: c.comp.Bytes,
		})
	}
	return mt
}

// extractionTrace builds the extraction flight record for the chosen
// program rooted at root.
func extractionTrace(ex *extract.Extractor, root egraph.ClassID) *telemetry.ExtractionTrace {
	if ex == nil {
		return nil
	}
	ds := ex.Decisions(root)
	mc := ex.Movement(root)
	et := &telemetry.ExtractionTrace{
		TotalCost:   ex.Cost(root),
		Classes:     len(ds),
		Literal:     mc.Literal,
		Contiguous:  mc.Contiguous,
		Shuffles:    mc.Shuffles,
		Selects:     mc.Selects,
		Gathers:     mc.Gathers,
		ScalarLanes: mc.ScalarLanes,
	}
	for _, d := range ds {
		if d.Contested() {
			et.Contested++
		}
		if len(et.Decisions) < telemetry.MaxDecisions {
			et.Decisions = append(et.Decisions, telemetry.ExtractionDecision{
				Class: int(d.Class), Winner: d.Winner,
				WinnerCost: d.WinnerCost, WinnerOwn: d.WinnerOwn,
				RunnerUp: d.RunnerUp, RunnerUpCost: d.RunnerUpCost,
				Margin: d.Margin, Candidates: d.Candidates,
			})
		}
	}
	return et
}

// ReportCycleProfile converts a simulator cycle profile into the neutral
// form the telemetry HTML report renders as a waterfall (telemetry cannot
// import the simulator without a cycle).
func ReportCycleProfile(p *sim.Profile) *telemetry.CycleProfile {
	if p == nil {
		return nil
	}
	cp := &telemetry.CycleProfile{
		Total:        p.Cycles,
		OperandStall: p.OperandStall,
		MemoryStall:  p.MemoryStall,
		BranchBubble: p.BranchBubble,
	}
	for _, o := range p.Hotspots(0) {
		cp.Rows = append(cp.Rows, telemetry.CycleRow{
			Name: o.Op, Count: o.Count, Cycles: o.Cycles, Stall: o.Stall,
		})
	}
	return cp
}
