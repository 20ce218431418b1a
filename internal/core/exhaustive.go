package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/detect"
	"repro/internal/filters"
	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/track"
)

// enumerateExhaustive produces the single fallback candidate for queries
// no specialized enumerator covers: materialize rows with the reference
// detector on every frame in range and interpret the WHERE expression per
// row. There is nothing to choose — the point of the exhaustive plan is
// that it makes no assumptions — but pricing it keeps EXPLAIN and the
// planner accounting uniform.
func (e *Engine) enumerateExhaustive(info *frameql.Info, par int) ([]candidate, error) {
	lo, hi := e.frameRange(info)
	full := e.DTest.FullFrameCost()
	p := &costedPlan{
		desc: plan.Description{
			Name:   "exhaustive",
			Family: frameql.KindExhaustive.String(),
			Detail: "detector on every frame; general WHERE interpreter per row",
		},
		est:  plan.Cost{DetectorCalls: float64(hi - lo), DetectorSeconds: float64(hi-lo) * full},
		open: func() (execution, error) { return e.newExhaustiveExec(info, par) },
	}
	cands := []candidate{{
		Plan:            p,
		MarginalSeconds: p.est.DetectorSeconds,
		Accuracy:        exactAccuracy,
		UpperBoundOnly:  info.Limit >= 0,
	}}
	if info.Limit >= 0 {
		cands = append(cands, e.densityExhaustiveCand(info, par))
	}
	return cands, nil
}

// detArena is the compact per-shard product of a detection scan: all
// detections of the shard's frames appended to one slice, with ends[i]
// marking the end offset of the shard's i-th frame. Shards produce arenas
// in parallel; the sequential merge slices them back per frame.
type detArena struct {
	dets []detect.Detection
	ends []int32
	// matched[j] is the pre-evaluated WHERE verdict for dets[j], filled
	// only when the predicate is track-independent (see exprUsesTrackID).
	matched []bool
	err     error
}

// frame returns the detections of the shard's i-th frame.
func (a *detArena) frame(i int) []detect.Detection {
	lo := int32(0)
	if i > 0 {
		lo = a.ends[i-1]
	}
	return a.dets[lo:a.ends[i]]
}

// frameMatched returns the matched verdicts aligned with frame(i).
func (a *detArena) frameMatched(i int) []bool {
	lo := int32(0)
	if i > 0 {
		lo = a.ends[i-1]
	}
	return a.matched[lo:a.ends[i]]
}

// exhaustiveState is the serializable suspension of an exhaustive scan:
// frame position, LIMIT/GAP progress, tracker state, and the partial
// result (rows, evaluation metadata, cost meter).
type exhaustiveState struct {
	Pos int `json:"pos"`
	// Finished marks a LIMIT-satisfied scan: no further frame can change
	// the result, even after the stream grows.
	Finished     bool        `json:"finished"`
	LastReturned int         `json:"last_returned"`
	Tracker      track.State `json:"tracker"`
	Result       resultState `json:"result"`
}

// exhaustiveKernel answers queries the optimizer has no shortcut for by
// materializing rows with the reference detector on every frame in range
// and evaluating the WHERE expression per row with a general interpreter.
// This is the semantics baseline every optimized plan is compared against.
//
// produce runs the detector (and, when the predicate does not mention
// trackid, the WHERE interpreter) over a frame range; merge advances the
// entity-resolution tracker, applies GAP/LIMIT, and charges the meter per
// frame — so track IDs, returned rows, and simulated cost are identical to
// a serial scan.
type exhaustiveKernel struct {
	e        *Engine
	info     *frameql.Info
	lo       int
	fullCost float64
	preEval  bool
	tracker  *track.Tracker
	last     int
	rows     []Row
	truth    []int
}

// newExhaustiveKernel builds the kernel over frames lo, lo+1, ….
func (e *Engine) newExhaustiveKernel(info *frameql.Info, lo int) *exhaustiveKernel {
	return &exhaustiveKernel{e: e, info: info, lo: lo, fullCost: e.DTest.FullFrameCost(),
		preEval: !exprUsesTrackID(info.Stmt.Where), tracker: track.New(0, 1), last: -1 << 40}
}

func (e *Engine) newExhaustiveExec(info *frameql.Info, par int) (execution, error) {
	if info.Stmt.Having != nil && info.Residual {
		return nil, fmt.Errorf("core: unsupported HAVING clause: %s", info.Stmt.Having)
	}
	lo, hi := e.frameRange(info)
	// LIMIT may stop the scan early; ramped shards keep the worst-case
	// speculative work small when the limit is satisfied quickly.
	return newScan(e.exec, info.Kind.String(), "exhaustive", par, hi-lo, info.Limit >= 0,
		e.newExhaustiveKernel(info, lo)), nil
}

// detectArena runs the detector over frames [lo, hi).
func (e *Engine) detectArena(lo, hi int) *detArena {
	a := &detArena{ends: make([]int32, 0, hi-lo)}
	// A Counter reuses the track-index scratch across the range's frames;
	// its detections are identical to Detector.Detect's.
	c := e.DTest.NewCounter()
	for f := lo; f < hi; f++ {
		a.dets = c.Detect(f, a.dets)
		a.ends = append(a.ends, int32(len(a.dets)))
	}
	return a
}

func (k *exhaustiveKernel) produce(lo, hi int) *detArena {
	a := k.e.detectArena(k.lo+lo, k.lo+hi)
	if !k.preEval {
		return a
	}
	var row Row
	start := 0
	for i, end := range a.ends {
		for j := start; j < int(end); j++ {
			row = Row{Timestamp: k.lo + lo + i}
			rowFromDetection(&row, 0, &a.dets[j])
			ok, err := evalPredicate(k.info.Stmt.Where, &row)
			if err != nil {
				// Record the error and stop: a.matched's length marks the
				// erroring row's position and a.ends ends at its frame, and
				// the merge surfaces the error only when (and if) a serial
				// scan would have reached that row — a LIMIT satisfied
				// earlier still returns its rows.
				a.err, a.ends = err, a.ends[:i+1]
				return a
			}
			a.matched = append(a.matched, ok)
		}
		start = int(end)
	}
	return a
}

func (k *exhaustiveKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, a *detArena) (int, int, bool, error) {
	where, limit, gap := k.info.Stmt.Where, k.info.Limit, k.info.Gap
	hits := 0
	for i := blo; i < bhi; i++ {
		off := off0 + (i - blo)
		if off >= len(a.ends) {
			// Pre-evaluation stopped inside this product: a serial scan
			// surfacing the error never reaches this frame.
			return i - blo + 1, hits, false, a.err
		}
		f := k.lo + i
		if m != nil {
			m.addDetection(k.fullCost)
		}
		detsStart := 0
		if off > 0 {
			detsStart = int(a.ends[off-1])
		}
		dets := a.frame(off)
		var ids []int
		if fold {
			ids = k.tracker.Advance(f, dets)
		}
		frameMatched := false
		for j := range dets {
			var ok bool
			if k.preEval {
				if detsStart+j >= len(a.matched) {
					// The row whose predicate evaluation errored.
					return i - blo + 1, hits, false, a.err
				}
				ok = a.matched[detsStart+j]
			} else {
				// trackid predicates need the tracker's identities, so they
				// only ever run folding (density order is infeasible).
				row := Row{Timestamp: f}
				rowFromDetection(&row, ids[j], &dets[j])
				var err error
				if ok, err = evalPredicate(where, &row); err != nil {
					return i - blo + 1, hits, false, err
				}
			}
			if !ok {
				continue
			}
			hits++
			if !fold || gap > 0 && f-k.last < gap {
				continue
			}
			frameMatched = true
			row := Row{Timestamp: f}
			rowFromDetection(&row, ids[j], &dets[j])
			k.rows = append(k.rows, row)
			k.truth = append(k.truth, dets[j].TruthID())
			if limit >= 0 && len(k.rows) >= limit {
				return i - blo + 1, hits, true, nil
			}
		}
		if frameMatched && gap > 0 {
			k.last = f
		}
	}
	return bhi - blo, hits, false, nil
}

func (k *exhaustiveKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&exhaustiveState{Pos: p.pos, Finished: p.finished, LastReturned: k.last,
		Tracker: k.tracker.Snapshot(),
		Result:  resultState{Kind: k.info.Kind.String(), Rows: k.rows, TruthIDs: k.truth, Stats: p.stats}})
}

func (k *exhaustiveKernel) load(state []byte, p *scanProgress) error {
	var st exhaustiveState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p = scanProgress{pos: st.Pos, finished: st.Finished, stats: st.Result.Stats}
	k.last, k.tracker = st.LastReturned, track.FromState(st.Tracker)
	k.rows, k.truth = st.Result.Rows, st.Result.TruthIDs
	return nil
}

func (k *exhaustiveKernel) adopt(prev scanKernel[*detArena]) {
	o := prev.(*exhaustiveKernel)
	k.tracker, k.last, k.rows, k.truth = o.tracker, o.last, o.rows, o.truth
}

// finish returns views of the rows and their truth IDs: both are
// append-only, so capacity-capped slices stay valid while the scan (a
// standing query's, over later frames) continues to append past them.
func (k *exhaustiveKernel) finish(res *Result) {
	res.Rows = k.rows[:len(k.rows):len(k.rows)]
	res.evalTruthIDs = k.truth[:len(k.truth):len(k.truth)]
}

// rowFromDetection fills a Row from a detection, leaving Timestamp to the
// caller (shard workers pre-evaluating predicates know the frame but not
// the track ID; the merge knows both).
func rowFromDetection(row *Row, trackID int, d *detect.Detection) {
	row.Class = d.Class
	row.Mask = d.Box
	row.TrackID = trackID
	row.Content = d.Color
	row.Confidence = d.Confidence
}

// exprUsesTrackID reports whether the expression reads the trackid field —
// the one Row input shard workers cannot pre-evaluate, because identity is
// assigned by the sequential tracker at merge time.
func exprUsesTrackID(expr frameql.Expr) bool {
	switch ex := expr.(type) {
	case nil:
		return false
	case *frameql.Ident:
		return strings.EqualFold(ex.Name, "trackid")
	case *frameql.ParenExpr:
		return exprUsesTrackID(ex.E)
	case *frameql.NotExpr:
		return exprUsesTrackID(ex.E)
	case *frameql.BinaryExpr:
		return exprUsesTrackID(ex.L) || exprUsesTrackID(ex.R)
	case *frameql.Call:
		for _, a := range ex.Args {
			if exprUsesTrackID(a) {
				return true
			}
		}
	}
	return false
}

// evalPredicate evaluates a WHERE expression against a row. A nil
// expression matches everything.
func evalPredicate(expr frameql.Expr, row *Row) (bool, error) {
	if expr == nil {
		return true, nil
	}
	v, err := evalExpr(expr, row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("core: predicate does not evaluate to a boolean: %s", expr)
	}
	return b, nil
}

// evalExpr interprets an expression over one row. Values are bool, float64,
// or string.
func evalExpr(expr frameql.Expr, row *Row) (interface{}, error) {
	switch ex := expr.(type) {
	case *frameql.ParenExpr:
		return evalExpr(ex.E, row)
	case *frameql.NumberLit:
		return ex.Value, nil
	case *frameql.StringLit:
		return ex.Value, nil
	case *frameql.Ident:
		switch strings.ToLower(ex.Name) {
		case "class":
			return string(row.Class), nil
		case "timestamp":
			return float64(row.Timestamp), nil
		case "trackid":
			return float64(row.TrackID), nil
		default:
			return nil, fmt.Errorf("core: unknown field %q", ex.Name)
		}
	case *frameql.NotExpr:
		v, err := evalExpr(ex.E, row)
		if err != nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("core: NOT applied to non-boolean")
		}
		return !b, nil
	case *frameql.Call:
		return evalCall(ex, row)
	case *frameql.BinaryExpr:
		return evalBinary(ex, row)
	}
	return nil, fmt.Errorf("core: unsupported expression %s", expr)
}

// evalCall evaluates a UDF call over the row's mask or content.
func evalCall(call *frameql.Call, row *Row) (interface{}, error) {
	if call.IsAggregate() {
		return nil, fmt.Errorf("core: aggregate %s not valid in row predicates", call.Func)
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("core: UDF %s expects one argument", call.Func)
	}
	arg, ok := call.Args[0].(*frameql.Ident)
	if !ok {
		return nil, fmt.Errorf("core: UDF %s expects a field argument", call.Func)
	}
	name := strings.ToLower(arg.Name)
	if name != "content" && name != "mask" {
		return nil, fmt.Errorf("core: UDFs apply to content or mask, not %q", arg.Name)
	}
	udf, ok := filters.ObjectUDFFor(strings.ToLower(call.Func))
	if !ok {
		return nil, fmt.Errorf("core: unknown UDF %q", call.Func)
	}
	d := detect.Detection{Class: row.Class, Box: row.Mask, Color: row.Content, Confidence: row.Confidence}
	return udf(&d), nil
}

// evalBinary evaluates comparisons and boolean connectives.
func evalBinary(be *frameql.BinaryExpr, row *Row) (interface{}, error) {
	switch be.Op {
	case "AND", "OR":
		l, err := evalExpr(be.L, row)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, fmt.Errorf("core: %s applied to non-boolean", be.Op)
		}
		// Short circuit.
		if be.Op == "AND" && !lb {
			return false, nil
		}
		if be.Op == "OR" && lb {
			return true, nil
		}
		r, err := evalExpr(be.R, row)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("core: %s applied to non-boolean", be.Op)
		}
		return rb, nil
	}
	l, err := evalExpr(be.L, row)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(be.R, row)
	if err != nil {
		return nil, err
	}
	switch lv := l.(type) {
	case string:
		rv, ok := r.(string)
		if !ok {
			return nil, fmt.Errorf("core: comparing string with non-string")
		}
		switch be.Op {
		case "=":
			return lv == rv, nil
		case "!=":
			return lv != rv, nil
		}
		return nil, fmt.Errorf("core: operator %s not defined on strings", be.Op)
	case float64:
		rv, ok := r.(float64)
		if !ok {
			return nil, fmt.Errorf("core: comparing number with non-number")
		}
		return filters.Compare(lv, be.Op, rv), nil
	}
	return nil, fmt.Errorf("core: cannot compare %T values", l)
}
