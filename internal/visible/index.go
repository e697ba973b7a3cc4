package visible

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/value"
)

// index is a column's access path: the row IDs sorted by (value, id).
// Every value has the column's kind, and value.Compare orders them totally.
type index struct {
	perm []uint32 // nil for a dense key: position i holds ID i+1
}

// run is a half-open range of positions in an index's sort order.
type run struct{ lo, hi int }

// lookup answers p from the column's index, building it on first use.
// ok is false when only the scan can answer p identically.
func (c *Column) lookup(p pred.P) (ids []uint32, ok bool) {
	c.once.Do(c.build)
	if c.ix == nil {
		return nil, false
	}
	var buf [2]run // every form but IN needs at most two runs: no allocation
	runs, ok := c.runs(p, buf[:0])
	if !ok {
		return nil, false
	}
	return c.ids(runs), true
}

// build sorts the permutation, unless the column is a dense key or its
// values are not totally ordered (then ix stays nil).
func (c *Column) build() {
	if c.dense {
		c.ix = &index{}
		return
	}
	// A column holds one kind, so only a NaN, which compares equal to
	// every float, leaves its values without a total order.
	if c.Kind == value.Float && slices.ContainsFunc(c.data.Words, func(w int64) bool { return math.IsNaN(math.Float64frombits(uint64(w))) }) {
		return
	}
	var perm []uint32
	if strs := c.data.Strs; c.Kind == value.String {
		perm = identity(c.n)
		slices.SortFunc(perm, func(a, b uint32) int {
			if r := cmp.Compare(strs[a-1], strs[b-1]); r != 0 {
				return r
			}
			return cmp.Compare(a, b)
		})
	} else {
		keys := make([]uint64, c.n)
		for i, w := range c.data.Words {
			keys[i] = sortKey(c.Kind, w)
		}
		perm = radixPerm(keys)
	}
	c.ix = &index{perm: perm}
}

func identity(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i + 1)
	}
	return perm
}

// sortKey maps the payload word of a value of an ordered kind other than
// String to a key whose unsigned order is value.Compare's order.
func sortKey(kind value.Kind, w int64) uint64 {
	switch kind {
	case value.Float:
		b := uint64(w) // a column's float is canonical: no -0
		if b>>63 != 0 {
			return ^b
		}
		return b | 1<<63
	case value.Bool:
		return uint64(w)
	default: // Int, Date
		return uint64(w) ^ 1<<63
	}
}

// radixPerm returns the IDs 1..len(keys) sorted by (keys[id-1], id): a
// stable byte-at-a-time radix sort starting from ID order, which skips
// the bytes all keys agree on — most of them, for the small domains
// columns usually have. With it an index costs two to three of the scans
// it replaces to build, where a comparison sort costs twenty-five
// (BenchmarkVisibleSelect, cold against scan).
func radixPerm(keys []uint64) []uint32 {
	perm, next := identity(len(keys)), make([]uint32, len(keys))
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range keys {
			start[k>>shift&0xff]++
		}
		pos := 0
		for d, count := range start {
			start[d], pos = pos, pos+count
		}
		for _, id := range perm {
			d := keys[id-1] >> shift & 0xff
			next[start[d]] = id
			start[d]++
		}
		perm, next = next, perm
	}
	return perm
}

// order compares two values of one ordered kind, for which
// value.Compare cannot fail.
func order(a, b value.Value) int {
	c, _ := value.Compare(a, b)
	return c
}

// literal brings a predicate's literal to the column's kind exactly as
// value.Compare would for each row, or reports that it cannot: Compare
// widens an Int literal against floats and parses a string literal
// against dates, and nothing else. (value.Coerce also turns an Int into
// a Date, which Compare rejects; a NaN literal equals every float.)
func (c *Column) literal(v value.Value) (value.Value, bool) {
	switch {
	case v.Kind() == c.Kind:
	case c.Kind == value.Float && v.Kind() == value.Int,
		c.Kind == value.Date && v.Kind() == value.String:
		cv, err := value.Coerce(v, c.Kind)
		if err != nil {
			return v, false
		}
		v = cv
	default:
		return v, false
	}
	if c.Kind == value.Float && v.Float() != v.Float() {
		return v, false
	}
	return v, true
}

// runs appends the run of the sort order each of p's spans covers, in
// the order pred.P.Spans gives them. It reports false when a span's
// literal does not fit the column (literal) or p is not one Spans knows.
func (c *Column) runs(p pred.P, runs []run) ([]run, bool) {
	err := p.Spans(func(s pred.Span) error {
		r := run{0, c.n}
		if !s.NoLo {
			v, ok := c.literal(s.Lo)
			if !ok {
				return errUnfit
			}
			r.lo = c.below(v, !s.LoIncl)
		}
		if !s.NoHi {
			v, ok := c.literal(s.Hi)
			if !ok {
				return errUnfit
			}
			r.hi = c.below(v, s.HiIncl)
		}
		runs = append(runs, r)
		return nil
	})
	return runs, err == nil
}

// errUnfit stops runs at a literal the column cannot compare as the scan
// would.
var errUnfit = errors.New("visible: literal does not fit the column")

// below counts the values less than v, or less than or equal to v: the
// position in the sort order where a run bounded by v starts or ends.
func (c *Column) below(v value.Value, orEqual bool) int {
	n := c.n
	perm := c.ix.perm
	if perm == nil { // dense key: the values are 1..n
		x := v.Int()
		if !orEqual {
			x = max(x, 1) - 1
		}
		return int(min(max(x, 0), int64(n)))
	}
	return sort.Search(n, func(i int) bool {
		r := order(c.at(int(perm[i])-1), v)
		return r > 0 || (r == 0 && !orEqual)
	})
}

// ids turns runs of the sort order back into ascending row IDs. A run
// over one value (or over a dense key) already is ascending and is
// copied out; anything else is marked in a bitmap and swept.
func (c *Column) ids(runs []run) []uint32 {
	total, one := 0, run{}
	for _, r := range runs {
		if r.lo < r.hi {
			total += r.hi - r.lo
			one = r
		}
	}
	if total == 0 {
		return nil
	}
	perm := c.ix.perm
	if total == one.hi-one.lo { // a single non-empty run
		if perm == nil {
			out := make([]uint32, total)
			for i := range out {
				out[i] = uint32(one.lo + i + 1)
			}
			return out
		}
		if order(c.at(int(perm[one.lo])-1), c.at(int(perm[one.hi-1])-1)) == 0 {
			return slices.Clone(perm[one.lo:one.hi])
		}
	}
	marks := make([]uint64, (c.n+63)/64)
	for _, r := range runs {
		for pos := r.lo; pos < r.hi; pos++ {
			k := uint32(pos)
			if perm != nil {
				k = perm[pos] - 1
			}
			marks[k>>6] |= 1 << (k & 63)
		}
	}
	out := make([]uint32, 0, total) // exact, but for a repeated IN element
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w<<6+bits.TrailingZeros64(word)+1))
		}
	}
	return out
}
