package plan

// CardEstimates is the optimizer's cardinality model for one
// (query, spec) pair — the same arithmetic Estimate folds into its time
// costs, exposed on its own so EXPLAIN ANALYZE can print estimated vs
// actual tuple counts (the runtime feedback a cost-based optimizer
// consumes).
type CardEstimates struct {
	// RootRows is the base root-table cardinality (floor 1).
	RootRows int
	// PredCount is each predicate's own-level matching cardinality:
	// exact for visible predicates, climbing-index dictionary statistics
	// for indexed hidden ones, and half the table when unknown.
	PredCount []int
	// PredRootCount scales PredCount to the query-root level through
	// the uniform fan-out assumption.
	PredRootCount []int
	// Candidates estimates the root IDs surviving every pre-filtering
	// contribution — the stream reaching the SKT scan.
	Candidates int
	// Survivors estimates the candidates surviving post verification:
	// the base pipeline's output cardinality before host-side
	// post-operators (aggregation, DISTINCT, ORDER BY, LIMIT).
	Survivors int
}

// EstimateCards runs the cost model's cardinality arithmetic for a spec.
func EstimateCards(q *Query, spec Spec, in CostInputs) CardEstimates {
	c := newCards(q, in)
	ce := CardEstimates{
		RootRows:      c.rootRows,
		PredCount:     make([]int, len(q.Preds)),
		PredRootCount: make([]int, len(q.Preds)),
	}
	for i := range spec.Strategies {
		ce.PredCount[i], ce.PredRootCount[i] = c.count(i), c.rootCount(i)
	}
	candidates, survivors := c.walk(spec)
	ce.Candidates = int(candidates + 0.5)
	ce.Survivors = int(survivors + 0.5)
	return ce
}

// cards is the cost model's cardinality arithmetic for one query under
// one set of statistics, written once: Estimate prices its unrounded
// values, EstimateCards rounds them.
type cards struct {
	q        *Query
	counts   []int
	rows     map[string]int
	rootRows int // base root cardinality, floor 1
}

func newCards(q *Query, in CostInputs) cards {
	rootRows := in.TableRows[q.Root.Name]
	if rootRows == 0 {
		rootRows = 1
	}
	return cards{q: q, counts: in.Counts, rows: in.TableRows, rootRows: rootRows}
}

// count is predicate i's own-level matching rows: its statistic, or half
// its table when unknown.
func (c cards) count(i int) int {
	if n := c.counts[i]; n >= 0 {
		return n
	}
	return c.rows[c.q.Preds[i].Col.Table] / 2
}

// rootCount scales count(i) to the root level (uniform fan-out).
func (c cards) rootCount(i int) int {
	tr := c.rows[c.q.Preds[i].Col.Table]
	if tr == 0 {
		return c.count(i)
	}
	return int(float64(c.count(i)) * float64(c.rootRows) / float64(tr))
}

// walk returns the root IDs surviving every pre-filtering contribution
// (the stream reaching the SKT scan) and the candidates surviving post
// verification, unrounded and each at least 1.
func (c cards) walk(spec Spec) (candidates, survivors float64) {
	preSelectivity := 1.0
	for i, st := range spec.Strategies {
		switch st {
		case StratVisPre, StratHidIndex, StratVisDevice:
			preSelectivity *= float64(c.rootCount(i)) / float64(c.rootRows)
		}
	}
	candidates = max(preSelectivity*float64(c.rootRows), 1)
	survivors = candidates
	for i, st := range spec.Strategies {
		switch st {
		case StratVisPost:
			survivors *= float64(c.rootCount(i)) / float64(c.rootRows)
		case StratHidPost:
			survivors *= float64(c.count(i)) / float64(max(c.rows[c.q.Preds[i].Col.Table], 1))
		}
	}
	return candidates, max(survivors, 1)
}
