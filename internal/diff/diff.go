// Package diff computes attributed deltas between two compilations of the
// same kernel — the regression forensics layer behind cmd/diosdiff. Given
// two compile artifacts (telemetry traces, or the rows of a diosbench
// -json/-bench-json array, which carry each kernel's trace and simulator
// cycle profile) it produces a structured Diff: the per-stage latency
// waterfall, per-rule divergence, Backoff ban-timeline alignment, the
// first iteration where the best-cost trajectories split, extraction
// decision flips, e-graph memory-component deltas, and per-opcode/per-slot
// simulated cycle deltas.
//
// The determinism contract (DESIGN.md §9) is the package's correctness
// anchor: identical compiles produce identical deterministic fields, so a
// self-diff is empty — Divergences covers only fields the contract pins
// (counts, costs, decisions, footprints, cycles), never wall-clock time,
// which is reported in the waterfall but can never make a diff non-empty.
package diff

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// Schema identifies the Diff JSON format, the way telemetry.TraceSchema
// identifies trace artifacts.
const Schema = "diospyros/diff/v1"

// Input is one side of a comparison: a compile trace, which every
// artifact carries, and the simulation's cycles when the kernel ran. A
// section one side lacks (a cycle profile, an extraction record) is
// surfaced as a Note on the Diff rather than silently skipped.
type Input struct {
	// Label names the side in reports ("bench.json", "current").
	Label string
	// Kernel is the kernel ID both sides should share.
	Kernel string
	// Trace is the side's compile trace. It must not be nil.
	Trace *telemetry.Trace
	// Profile is the side's simulated cycle profile, when available.
	Profile *sim.Profile
	// Cycles is the side's total simulated cycle count (0 when unknown;
	// falls back to Profile.Cycles).
	Cycles int64
}

// Pair is a baseline/current pair of integer readings.
type Pair struct {
	Base int64 `json:"base"`
	Cur  int64 `json:"cur"`
}

// Delta returns Cur - Base.
func (p Pair) Delta() int64 { return p.Cur - p.Base }

// Diverged reports whether the two readings differ.
func (p Pair) Diverged() bool { return p.Base != p.Cur }

// FPair is a baseline/current pair of float readings.
type FPair struct {
	Base float64 `json:"base"`
	Cur  float64 `json:"cur"`
}

// Diverged reports whether the two readings differ exactly — deterministic
// fields are bit-identical across equivalent runs, so no epsilon.
func (p FPair) Diverged() bool { return p.Base != p.Cur }

// Divergence is one attributed semantic difference between the two runs —
// the autopsy lines. Wall-clock deltas never appear here.
type Divergence struct {
	// Kind classifies the divergence: "stop-reason", "saturation", "rule",
	// "ban", "cost", "extraction", "movement", "memory", "cycles", "stage-set".
	Kind string `json:"kind"`
	// Subject names the diverging entity (rule, opcode, component, class).
	Subject string `json:"subject,omitempty"`
	// Detail is the human-readable one-liner.
	Detail string `json:"detail"`
}

// PhaseDelta is one latency-waterfall row: a phase path of the two traces
// (telemetry.Trace.Phases). Wall time is informational: it never
// contributes a Divergence.
type PhaseDelta struct {
	Path   string `json:"path"`
	BaseNS int64  `json:"base_ns"`
	CurNS  int64  `json:"cur_ns"`
	// DeltaPct is the relative wall-time change ((cur-base)/base; 0 when
	// the baseline duration is 0 or the phase is one-sided).
	DeltaPct float64 `json:"delta_pct"`
	// OnlyIn marks a phase present on one side only ("baseline"/"current").
	OnlyIn string `json:"only_in,omitempty"`
}

// SaturationDiff compares the searches' shape: iteration count, final
// e-graph size, stop reason, and where the size trajectories split.
type SaturationDiff struct {
	Iterations Pair   `json:"iterations"`
	Nodes      Pair   `json:"nodes"`
	Classes    Pair   `json:"classes"`
	BaseStop   string `json:"base_stop,omitempty"`
	CurStop    string `json:"cur_stop,omitempty"`
	// SplitIteration is the first 1-based iteration whose node/class gauge
	// differs between the runs; 0 means the trajectories are aligned.
	SplitIteration int `json:"split_iteration,omitempty"`
}

// RuleDelta is one rewrite rule's divergence across the two runs.
type RuleDelta struct {
	Rule     string `json:"rule"`
	Matches  Pair   `json:"matches"`
	Applied  Pair   `json:"applied"`
	NewNodes Pair   `json:"new_nodes"`
	Bans     Pair   `json:"bans"`
	// BaseNS/CurNS total the rule's search+apply wall time (informational).
	BaseNS int64 `json:"base_ns,omitempty"`
	CurNS  int64 `json:"cur_ns,omitempty"`
	// OnlyIn marks a rule that ran on one side only.
	OnlyIn string `json:"only_in,omitempty"`
	// SplitIteration is the first 1-based iteration whose rule row
	// differs; 0 when the per-iteration rows agree.
	SplitIteration int `json:"split_iteration,omitempty"`
}

// Diverged reports whether any deterministic count differs.
func (r RuleDelta) Diverged() bool {
	return r.OnlyIn != "" || r.Matches.Diverged() || r.Applied.Diverged() ||
		r.NewNodes.Diverged() || r.Bans.Diverged()
}

// BanDiff aligns the Backoff ban timelines of the two runs.
type BanDiff struct {
	Base []telemetry.Ban `json:"base,omitempty"`
	Cur  []telemetry.Ban `json:"cur,omitempty"`
	// FirstDivergence is the 0-based index of the first misaligned ban
	// (-1 when the timelines agree).
	FirstDivergence int `json:"first_divergence"`
}

// CostSplit records where the per-iteration best-cost trajectories part.
type CostSplit struct {
	// Iteration is the first 1-based iteration whose best extractable cost
	// differs between the runs.
	Iteration int     `json:"iteration"`
	Base      float64 `json:"base"`
	Cur       float64 `json:"cur"`
}

// DecisionFlip is one contested e-class whose winning implementation
// changed between the runs, with the cost breakdown behind each choice.
type DecisionFlip struct {
	Class      int     `json:"class"`
	BaseWinner string  `json:"base_winner"`
	CurWinner  string  `json:"cur_winner"`
	BaseCost   float64 `json:"base_cost"`
	CurCost    float64 `json:"cur_cost"`
}

// MovementDelta is one data-movement kind's census change (shuffles,
// selects, gathers, ... — the §4 cost-model distinction).
type MovementDelta struct {
	Kind  string `json:"kind"`
	Count Pair   `json:"count"`
}

// ExtractionDiff compares what extraction chose.
type ExtractionDiff struct {
	TotalCost FPair           `json:"total_cost"`
	Contested Pair            `json:"contested"`
	Flips     []DecisionFlip  `json:"flips,omitempty"`
	Movement  []MovementDelta `json:"movement,omitempty"`
}

// ComponentDelta is one e-graph memory component's footprint change.
type ComponentDelta struct {
	Component string `json:"component"`
	Entries   Pair   `json:"entries"`
	Bytes     Pair   `json:"bytes"`
}

// MemoryDiff compares the e-graph peak footprints.
type MemoryDiff struct {
	PeakBytes     Pair             `json:"peak_bytes"`
	PeakIteration Pair             `json:"peak_iteration"`
	Components    []ComponentDelta `json:"components,omitempty"`
}

// OpDelta is one opcode's simulated-cycle change.
type OpDelta struct {
	Op     string `json:"op"`
	Count  Pair   `json:"count"`
	Cycles Pair   `json:"cycles"`
	Stall  Pair   `json:"stall"`
	OnlyIn string `json:"only_in,omitempty"`
}

// SlotDelta is one issue slot's simulated-cycle change.
type SlotDelta struct {
	Slot   string `json:"slot"`
	Issued Pair   `json:"issued"`
	Cycles Pair   `json:"cycles"`
}

// CycleDiff compares the simulator cycle profiles per opcode and slot.
type CycleDiff struct {
	Total        Pair        `json:"total"`
	OperandStall Pair        `json:"operand_stall"`
	MemoryStall  Pair        `json:"memory_stall"`
	BranchBubble Pair        `json:"branch_bubble"`
	Ops          []OpDelta   `json:"ops,omitempty"`
	Slots        []SlotDelta `json:"slots,omitempty"`
}

// Diff is the structured, attributed delta between two compilations — the
// diospyros/diff/v1 artifact. Divergences lists every semantic difference;
// the section fields carry the data behind them plus the informational
// wall-time waterfall.
type Diff struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Kernel names the compared kernel, when known.
	Kernel string `json:"kernel,omitempty"`
	// BaseLabel and CurLabel name the two sides.
	BaseLabel string `json:"base_label"`
	CurLabel  string `json:"cur_label"`

	// Divergences is the autopsy: every attributed semantic difference,
	// most significant first. Empty means the runs are equivalent under
	// the determinism contract.
	Divergences []Divergence `json:"divergences,omitempty"`

	Phases     []PhaseDelta    `json:"phases,omitempty"`
	Saturation *SaturationDiff `json:"saturation,omitempty"`
	Rules      []RuleDelta     `json:"rules,omitempty"`
	Bans       *BanDiff        `json:"bans,omitempty"`
	CostSplit  *CostSplit      `json:"cost_split,omitempty"`
	Extraction *ExtractionDiff `json:"extraction,omitempty"`
	Memory     *MemoryDiff     `json:"memory,omitempty"`
	Cycles     *CycleDiff      `json:"cycles,omitempty"`

	// Notes lists sections that could not be compared (e.g. one side
	// carries no cycle profile) — context, not divergence.
	Notes []string `json:"notes,omitempty"`
}

// Empty reports whether the two runs are equivalent: no semantic
// divergence was found (wall-time deltas do not count).
func (d *Diff) Empty() bool { return len(d.Divergences) == 0 }

// JSON renders the diff artifact.
func (d *Diff) JSON() ([]byte, error) { return json.MarshalIndent(d, "", "  ") }

// Compare diffs two compilations of the same kernel. Whatever both sides
// carry is compared, and sections one side lacks become Notes.
func Compare(base, cur Input) *Diff {
	d := &Diff{
		Schema:    Schema,
		Kernel:    firstNonEmpty(cur.Kernel, base.Kernel),
		BaseLabel: firstNonEmpty(base.Label, "baseline"),
		CurLabel:  firstNonEmpty(cur.Label, "current"),
	}
	comparePhases(d, base.Trace, cur.Trace)
	compareSaturation(d, base.Trace, cur.Trace)
	compareSearch(d, base.Trace, cur.Trace)
	compareExtraction(d, base.Trace.Extraction, cur.Trace.Extraction)
	compareMemory(d, base.Trace.Memory, cur.Trace.Memory)
	compareCycles(d, base, cur)
	return d
}

// firstNonEmpty returns the first non-empty string.
func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func (d *Diff) diverge(kind, subject, format string, args ...any) {
	d.Divergences = append(d.Divergences, Divergence{
		Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...),
	})
}

// comparePhases builds the latency waterfall from the two phase lists —
// baseline order, then paths only the current run has — and flags
// stage-set mismatches: a compile.<stage> path on one side only is
// semantic (the pipelines took different paths). Wall time never is.
func comparePhases(d *Diff, base, cur *telemetry.Trace) {
	index := func(ps []telemetry.Phase) map[string]time.Duration {
		m := make(map[string]time.Duration, len(ps))
		for _, p := range ps {
			if _, dup := m[p.Path]; !dup {
				m[p.Path] = p.Duration
			}
		}
		return m
	}
	bp, cp := base.Phases(), cur.Phases()
	bd, cd := index(bp), index(cp)
	seen := map[string]bool{}
	for _, p := range append(bp, cp...) {
		if seen[p.Path] {
			continue
		}
		seen[p.Path] = true
		b, inBase := bd[p.Path]
		c, inCur := cd[p.Path]
		row := PhaseDelta{Path: p.Path, BaseNS: int64(b), CurNS: int64(c)}
		side := d.BaseLabel
		switch {
		case !inCur:
			row.OnlyIn = "baseline"
		case !inBase:
			row.OnlyIn, side = "current", d.CurLabel
		case b > 0:
			row.DeltaPct = float64(c-b) / float64(b)
		}
		d.Phases = append(d.Phases, row)
		if stage, ok := strings.CutPrefix(p.Path, "compile."); ok && row.OnlyIn != "" && !strings.Contains(stage, ".") {
			d.diverge("stage-set", stage, "stage %s ran only in %s", stage, side)
		}
	}
}

// compareSaturation diffs the search shape: stop reason, iteration count,
// final size, and the first iteration where the size trajectories split.
func compareSaturation(d *Diff, base, cur *telemetry.Trace) {
	sd := &SaturationDiff{
		Iterations: Pair{int64(len(base.Iterations)), int64(len(cur.Iterations))},
		BaseStop:   base.StopReason,
		CurStop:    cur.StopReason,
	}
	if g, ok := base.FinalGauge(); ok {
		sd.Nodes.Base, sd.Classes.Base = int64(g.Nodes), int64(g.Classes)
	}
	if g, ok := cur.FinalGauge(); ok {
		sd.Nodes.Cur, sd.Classes.Cur = int64(g.Nodes), int64(g.Classes)
	}
	n := min(len(base.Iterations), len(cur.Iterations))
	for i := 0; i < n; i++ {
		b, c := base.Iterations[i], cur.Iterations[i]
		if b.Nodes != c.Nodes || b.Classes != c.Classes {
			sd.SplitIteration = b.Iteration
			break
		}
	}
	if sd.SplitIteration == 0 && len(base.Iterations) != len(cur.Iterations) && n > 0 {
		sd.SplitIteration = n + 1
	}
	d.Saturation = sd

	if base.StopReason != cur.StopReason {
		d.diverge("stop-reason", "", "stop reason %s → %s", base.StopReason, cur.StopReason)
	}
	if sd.Iterations.Diverged() {
		d.diverge("saturation", "", "iterations %d → %d", sd.Iterations.Base, sd.Iterations.Cur)
	}
	if sd.Nodes.Diverged() || sd.Classes.Diverged() {
		d.diverge("saturation", "", "final e-graph %d nodes / %d classes → %d / %d",
			sd.Nodes.Base, sd.Classes.Base, sd.Nodes.Cur, sd.Classes.Cur)
	} else if sd.SplitIteration > 0 {
		d.diverge("saturation", "", "size trajectories split at iteration %d", sd.SplitIteration)
	}
}

// compareSearch diffs the saturation record: per-rule attribution, the
// ban timeline and the best-cost trajectory, all derived from the
// iteration gauges' rule rows.
func compareSearch(d *Diff, base, cur *telemetry.Trace) {
	bRules, bBans := telemetry.Attribution(base.Iterations)
	cRules, cBans := telemetry.Attribution(cur.Iterations)

	// Per-rule attribution, keyed by rule name, baseline order first.
	type side struct{ b, c *telemetry.RuleAttribution }
	rules := map[string]*side{}
	var order []string
	at := func(name string) *side {
		s := rules[name]
		if s == nil {
			s = &side{}
			rules[name] = s
			order = append(order, name)
		}
		return s
	}
	for i := range bRules {
		at(bRules[i].Rule).b = &bRules[i]
	}
	for i := range cRules {
		at(cRules[i].Rule).c = &cRules[i]
	}
	for _, name := range order {
		s := rules[name]
		rd := RuleDelta{Rule: name}
		if s.b != nil {
			rd.Matches.Base, rd.Applied.Base = int64(s.b.Matches), int64(s.b.Applied)
			rd.NewNodes.Base, rd.Bans.Base = int64(s.b.NewNodes), int64(s.b.Bans)
			rd.BaseNS = int64(s.b.Duration)
		}
		if s.c != nil {
			rd.Matches.Cur, rd.Applied.Cur = int64(s.c.Matches), int64(s.c.Applied)
			rd.NewNodes.Cur, rd.Bans.Cur = int64(s.c.NewNodes), int64(s.c.Bans)
			rd.CurNS = int64(s.c.Duration)
		}
		switch {
		case s.c == nil:
			rd.OnlyIn = "baseline"
		case s.b == nil:
			rd.OnlyIn = "current"
		}
		if rd.Diverged() {
			rd.SplitIteration = ruleSplitIteration(name, base.Iterations, cur.Iterations)
		}
		d.Rules = append(d.Rules, rd)
	}
	// Diverged rules first, biggest applied-count swing on top, so the
	// autopsy leads with the responsible rewrite.
	sort.SliceStable(d.Rules, func(i, j int) bool {
		di, dj := d.Rules[i].Diverged(), d.Rules[j].Diverged()
		if di != dj {
			return di
		}
		return abs64(d.Rules[i].Applied.Delta()) > abs64(d.Rules[j].Applied.Delta())
	})
	for _, rd := range d.Rules {
		if !rd.Diverged() {
			continue
		}
		switch rd.OnlyIn {
		case "baseline":
			d.diverge("rule", rd.Rule, "rule %s ran only in %s (%d matches, %d applied)",
				rd.Rule, d.BaseLabel, rd.Matches.Base, rd.Applied.Base)
		case "current":
			d.diverge("rule", rd.Rule, "rule %s ran only in %s (%d matches, %d applied)",
				rd.Rule, d.CurLabel, rd.Matches.Cur, rd.Applied.Cur)
		default:
			detail := fmt.Sprintf("rule %s: matches %d → %d, applied %d → %d, new nodes %d → %d",
				rd.Rule, rd.Matches.Base, rd.Matches.Cur,
				rd.Applied.Base, rd.Applied.Cur, rd.NewNodes.Base, rd.NewNodes.Cur)
			if rd.SplitIteration > 0 {
				detail += fmt.Sprintf(" (diverging from iteration %d)", rd.SplitIteration)
			}
			d.diverge("rule", rd.Rule, "%s", detail)
		}
	}

	compareBans(d, bBans, cBans)
	compareCostTrajectory(d, costSamples(base.Iterations), costSamples(cur.Iterations))
}

// ruleSplitIteration finds the first 1-based iteration whose rule row —
// banned steps included, wall time excluded — differs between the runs (0
// when aligned).
func ruleSplitIteration(rule string, base, cur []telemetry.IterationGauge) int {
	for i := 0; i < max(len(base), len(cur)); i++ {
		var b, c telemetry.RuleStep
		if i < len(base) {
			b = ruleStep(base[i], rule)
		}
		if i < len(cur) {
			c = ruleStep(cur[i], rule)
		}
		if b != c {
			return i + 1
		}
	}
	return 0
}

// ruleStep returns the gauge's row for rule with its wall time zeroed (the
// zero step when the rule did not match that iteration).
func ruleStep(g telemetry.IterationGauge, rule string) telemetry.RuleStep {
	for _, s := range g.Rules {
		if s.Rule == rule {
			s.Duration = 0
			return s
		}
	}
	return telemetry.RuleStep{}
}

// compareBans aligns the Backoff ban timelines.
func compareBans(d *Diff, base, cur []telemetry.Ban) {
	if len(base) == 0 && len(cur) == 0 {
		return
	}
	bd := &BanDiff{Base: base, Cur: cur, FirstDivergence: -1}
	n := min(len(base), len(cur))
	for i := 0; i < n; i++ {
		b, c := base[i], cur[i]
		if b.Rule != c.Rule || b.Iteration != c.Iteration || b.BannedUntil != c.BannedUntil || b.Matches != c.Matches {
			bd.FirstDivergence = i
			break
		}
	}
	if bd.FirstDivergence == -1 && len(base) != len(cur) {
		bd.FirstDivergence = n
	}
	d.Bans = bd
	if bd.FirstDivergence < 0 {
		return
	}
	i := bd.FirstDivergence
	switch {
	case i >= len(base):
		b := cur[i]
		d.diverge("ban", b.Rule, "extra ban in %s: %s at iteration %d (until %d)",
			d.CurLabel, b.Rule, b.Iteration, b.BannedUntil)
	case i >= len(cur):
		b := base[i]
		d.diverge("ban", b.Rule, "ban missing from %s: %s at iteration %d (until %d)",
			d.CurLabel, b.Rule, b.Iteration, b.BannedUntil)
	default:
		b, c := base[i], cur[i]
		d.diverge("ban", c.Rule, "ban timelines diverge at entry %d: %s@%d(until %d) → %s@%d(until %d)",
			i, b.Rule, b.Iteration, b.BannedUntil, c.Rule, c.Iteration, c.BannedUntil)
	}
}

// costSamples returns the gauges that carry a best-cost sample: the
// best-cost trajectory.
func costSamples(gs []telemetry.IterationGauge) []telemetry.IterationGauge {
	var out []telemetry.IterationGauge
	for _, g := range gs {
		if g.BestCost != nil {
			out = append(out, g)
		}
	}
	return out
}

// compareCostTrajectory finds the first iteration where the best-cost
// trajectories split.
func compareCostTrajectory(d *Diff, base, cur []telemetry.IterationGauge) {
	n := min(len(base), len(cur))
	for i := 0; i < n; i++ {
		b, c := base[i], cur[i]
		if b.Iteration != c.Iteration || *b.BestCost != *c.BestCost {
			d.CostSplit = &CostSplit{Iteration: c.Iteration, Base: *b.BestCost, Cur: *c.BestCost}
			d.diverge("cost", "", "best-cost trajectories split at iteration %d: %g → %g",
				c.Iteration, *b.BestCost, *c.BestCost)
			return
		}
	}
	if len(base) != len(cur) && n > 0 {
		var it int
		if len(base) > n {
			it = base[n].Iteration
			d.CostSplit = &CostSplit{Iteration: it, Base: *base[n].BestCost}
		} else {
			it = cur[n].Iteration
			d.CostSplit = &CostSplit{Iteration: it, Cur: *cur[n].BestCost}
		}
		d.diverge("cost", "", "best-cost trajectories split at iteration %d: one run stopped sampling", it)
	}
}

// compareExtraction diffs the decision traces: total cost, contested-class
// counts, winner flips per e-class, and the data-movement census.
func compareExtraction(d *Diff, base, cur *telemetry.ExtractionTrace) {
	if base == nil && cur == nil {
		return
	}
	if base == nil || cur == nil {
		side := d.BaseLabel
		if cur == nil {
			side = d.CurLabel
		}
		d.Notes = append(d.Notes,
			fmt.Sprintf("%s recorded no extraction trace; decision flips unavailable", side))
		return
	}
	ed := &ExtractionDiff{
		TotalCost: FPair{base.TotalCost, cur.TotalCost},
		Contested: Pair{int64(base.Contested), int64(cur.Contested)},
	}
	curBy := map[int]telemetry.ExtractionDecision{}
	for _, c := range cur.Decisions {
		curBy[c.Class] = c
	}
	for _, b := range base.Decisions {
		c, ok := curBy[b.Class]
		if !ok || b.Winner == c.Winner {
			continue
		}
		ed.Flips = append(ed.Flips, DecisionFlip{
			Class: b.Class, BaseWinner: b.Winner, CurWinner: c.Winner,
			BaseCost: b.WinnerCost, CurCost: c.WinnerCost,
		})
	}
	for _, m := range []struct {
		kind string
		b, c int
	}{
		{"literal", base.Literal, cur.Literal},
		{"contiguous", base.Contiguous, cur.Contiguous},
		{"shuffles", base.Shuffles, cur.Shuffles},
		{"selects", base.Selects, cur.Selects},
		{"gathers", base.Gathers, cur.Gathers},
		{"scalar lanes", base.ScalarLanes, cur.ScalarLanes},
	} {
		if m.b == 0 && m.c == 0 {
			continue
		}
		ed.Movement = append(ed.Movement, MovementDelta{Kind: m.kind, Count: Pair{int64(m.b), int64(m.c)}})
	}
	d.Extraction = ed

	if ed.TotalCost.Diverged() {
		d.diverge("extraction", "", "extracted cost %g → %g", ed.TotalCost.Base, ed.TotalCost.Cur)
	}
	for _, f := range ed.Flips {
		d.diverge("extraction", f.BaseWinner,
			"class %d winner flipped: %s (cost %g) → %s (cost %g)",
			f.Class, f.BaseWinner, f.BaseCost, f.CurWinner, f.CurCost)
	}
	if ed.Contested.Diverged() {
		d.diverge("extraction", "", "contested classes %d → %d", ed.Contested.Base, ed.Contested.Cur)
	}
	for _, m := range ed.Movement {
		if m.Count.Diverged() {
			d.diverge("movement", m.Kind, "%s %d → %d", m.Kind, m.Count.Base, m.Count.Cur)
		}
	}
}

// compareMemory diffs the e-graph peak footprints, per component when
// both sides recorded one. A compile that stopped before saturating
// records no memory trace.
func compareMemory(d *Diff, bm, cm *telemetry.MemoryTrace) {
	if bm == nil && cm == nil {
		return
	}
	md := &MemoryDiff{}
	if bm != nil {
		md.PeakBytes.Base, md.PeakIteration.Base = bm.PeakBytes, int64(bm.PeakIteration)
	}
	if cm != nil {
		md.PeakBytes.Cur, md.PeakIteration.Cur = cm.PeakBytes, int64(cm.PeakIteration)
	}
	if bm != nil && cm != nil {
		curBy := map[string]telemetry.MemoryComponent{}
		var order []string
		for _, c := range cm.Components {
			curBy[c.Name] = c
			order = append(order, c.Name)
		}
		seen := map[string]bool{}
		for _, b := range bm.Components {
			seen[b.Name] = true
			c := curBy[b.Name]
			md.Components = append(md.Components, ComponentDelta{
				Component: b.Name,
				Entries:   Pair{int64(b.Entries), int64(c.Entries)},
				Bytes:     Pair{b.Bytes, c.Bytes},
			})
		}
		for _, name := range order {
			if !seen[name] {
				c := curBy[name]
				md.Components = append(md.Components, ComponentDelta{
					Component: name,
					Entries:   Pair{0, int64(c.Entries)},
					Bytes:     Pair{0, c.Bytes},
				})
			}
		}
	}
	d.Memory = md
	// A zero side recorded no footprint: informational, never a
	// divergence (the stage set already diverges).
	if md.PeakBytes.Diverged() && md.PeakBytes.Base != 0 && md.PeakBytes.Cur != 0 {
		d.diverge("memory", "", "peak e-graph footprint %d → %d bytes (%+d)",
			md.PeakBytes.Base, md.PeakBytes.Cur, md.PeakBytes.Delta())
	}
	for _, c := range md.Components {
		if c.Bytes.Diverged() || c.Entries.Diverged() {
			d.diverge("memory", c.Component, "component %s: %d entries / %d bytes → %d / %d",
				c.Component, c.Entries.Base, c.Bytes.Base, c.Entries.Cur, c.Bytes.Cur)
		}
	}
}

// compareCycles diffs the simulated cycle profiles per opcode and slot.
func compareCycles(d *Diff, base, cur Input) {
	bc, cc := totalCycles(base), totalCycles(cur)
	if bc == 0 && cc == 0 {
		return
	}
	cd := &CycleDiff{Total: Pair{bc, cc}}
	bp, cp := base.Profile, cur.Profile
	if bp != nil && cp != nil {
		cd.OperandStall = Pair{bp.OperandStall, cp.OperandStall}
		cd.MemoryStall = Pair{bp.MemoryStall, cp.MemoryStall}
		cd.BranchBubble = Pair{bp.BranchBubble, cp.BranchBubble}

		curOps := map[string]sim.OpProfile{}
		var curOrder []string
		for _, o := range cp.PerOp {
			curOps[o.Op] = o
			curOrder = append(curOrder, o.Op)
		}
		seen := map[string]bool{}
		for _, b := range bp.PerOp {
			seen[b.Op] = true
			c, ok := curOps[b.Op]
			od := OpDelta{
				Op:     b.Op,
				Count:  Pair{b.Count, c.Count},
				Cycles: Pair{b.Cycles, c.Cycles},
				Stall:  Pair{b.Stall, c.Stall},
			}
			if !ok {
				od.OnlyIn = "baseline"
			}
			cd.Ops = append(cd.Ops, od)
		}
		for _, op := range curOrder {
			if !seen[op] {
				c := curOps[op]
				cd.Ops = append(cd.Ops, OpDelta{
					Op: op, OnlyIn: "current",
					Count: Pair{0, c.Count}, Cycles: Pair{0, c.Cycles}, Stall: Pair{0, c.Stall},
				})
			}
		}
		curSlots := map[string]sim.SlotProfile{}
		for _, s := range cp.Slots {
			curSlots[s.Slot] = s
		}
		for _, b := range bp.Slots {
			c := curSlots[b.Slot]
			cd.Slots = append(cd.Slots, SlotDelta{
				Slot: b.Slot, Issued: Pair{b.Issued, c.Issued}, Cycles: Pair{b.Cycles, c.Cycles},
			})
		}
	} else if bp == nil && cp == nil {
		d.Notes = append(d.Notes, "neither artifact carries a cycle profile; comparing total cycles only")
	} else {
		side := d.BaseLabel
		if cp == nil {
			side = d.CurLabel
		}
		d.Notes = append(d.Notes,
			fmt.Sprintf("%s carries no cycle profile; per-opcode deltas unavailable", side))
	}
	d.Cycles = cd

	if cd.Total.Diverged() && bc != 0 && cc != 0 {
		d.diverge("cycles", "", "simulated cycles %d → %d (%+d, %+.1f%%)",
			bc, cc, cc-bc, 100*float64(cc-bc)/float64(bc))
	}
	for _, o := range cd.Ops {
		if o.Count.Diverged() || o.Cycles.Diverged() || o.Stall.Diverged() {
			d.diverge("cycles", o.Op, "opcode %s: count %d → %d, cycles %d → %d, stall %d → %d",
				o.Op, o.Count.Base, o.Count.Cur, o.Cycles.Base, o.Cycles.Cur,
				o.Stall.Base, o.Stall.Cur)
		}
	}
	for _, s := range cd.Slots {
		if s.Issued.Diverged() || s.Cycles.Diverged() {
			d.diverge("cycles", s.Slot, "slot %s: issued %d → %d, cycles %d → %d",
				s.Slot, s.Issued.Base, s.Issued.Cur, s.Cycles.Base, s.Cycles.Cur)
		}
	}
}

// totalCycles resolves the side's total simulated cycles from Cycles or
// the profile.
func totalCycles(in Input) int64 {
	if in.Cycles != 0 {
		return in.Cycles
	}
	if in.Profile != nil {
		return in.Profile.Cycles
	}
	return 0
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
