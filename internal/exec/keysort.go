package exec

// The run sort's one comparison sort. keySorter is the pdqsort of Go
// 1.24's slices.SortFunc — $GOROOT/src/slices/zsortanyfunc.go (generated
// by gen_sort_variants.go; Copyright 2022 The Go Authors, BSD-style
// license) and the helpers it takes from slices/sort.go — transcribed for
// []sortKey by two mechanical transforms. The first:
//
//   - XxxCmpFunc[E any](data []E, …, cmp func(a, b E) int) becomes the
//     method (*keySorter).xxx(data []sortKey, …), and E becomes sortKey;
//   - every cmp(x, y) < 0 becomes s.less(x, y), which counts the call;
//   - breakPatterns and reverseRange, which never call cmp, stay plain
//     functions and lose the parameter;
//   - the stable-sort half (stableCmpFunc, symMerge, rotate, swapRange),
//     which SortFunc does not reach, is left out.
//
// The second counts the three hot scans without a call per compare:
// insertionSort, partition and partitionEqual hold the key they compare
// against in a local (the element being inserted; the pivot, which sits
// at data[a] until the partition ends) and compare keys directly. A scan
// loop `for i <= j && less(…)` makes one compare per step it takes, plus
// one when it stops on a false compare rather than on its bound, so each
// scan adds (steps + stopped-on-compare) to s.compares once it ends.
// insertionSort shifts the larger keys up and drops the inserted one into
// the hole instead of swapping it down step by step: the same final
// order.
//
// Nothing else changes, so the pivots, the comparisons counted and the
// order ties end in are those of slices.SortFunc with the comparator
// cmp.Compare(a.key, b.key): the count formRuns charges is the count the
// run sort has always charged. testdata/keysort_golden.txt, written from
// slices.SortFunc, pins it independently of the toolchain.

import "math/bits"

// sortKey is one buffered record during run formation: its sort key and
// its record position in the run buffer.
type sortKey struct{ key, pos uint32 }

// keySorter sorts sortKeys by key, counting the comparisons it makes.
type keySorter struct{ compares int64 }

// sort sorts data ascending by key; equal keys end in pdqsort's order.
func (s *keySorter) sort(data []sortKey) {
	n := len(data)
	s.pdqsort(data, 0, n, bits.Len(uint(n)))
}

func (s *keySorter) less(a, b sortKey) bool {
	s.compares++
	return a.key < b.key
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSort sorts data[a:b] using insertion sort.
func (s *keySorter) insertionSort(data []sortKey, a, b int) {
	var compares int64
	for i := a + 1; i < b; i++ {
		x := data[i]
		j := i
		for j > a && x.key < data[j-1].key {
			data[j] = data[j-1]
			j--
		}
		data[j] = x
		compares += int64(i - j)
		if j > a {
			compares++ // stopped on data[j-1] <= x
		}
	}
	s.compares += compares
}

// siftDown implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func (s *keySorter) siftDown(data []sortKey, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && s.less(data[first+child], data[first+child+1]) {
			child++
		}
		if !s.less(data[first+root], data[first+child]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func (s *keySorter) heapSort(data []sortKey, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		s.siftDown(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		s.siftDown(data, lo, i, first)
	}
}

// pdqsort sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func (s *keySorter) pdqsort(data []sortKey, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			s.insertionSort(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			s.heapSort(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatterns(data, a, b)
			limit--
		}

		pivot, hint := s.choosePivot(data, a, b)
		if hint == decreasingHint {
			reverseRange(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if s.partialInsertionSort(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !s.less(data[a-1], data[pivot]) {
			mid := s.partitionEqual(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := s.partition(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			s.pdqsort(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			s.pdqsort(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partition does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func (s *keySorter) partition(data []sortKey, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned
	p := data[a].key
	compares := int64(0)

	i0 := i
	for i <= j && data[i].key < p {
		i++
	}
	compares += int64(i - i0)
	if i <= j {
		compares++
	}
	j0 := j
	for i <= j && !(data[j].key < p) {
		j--
	}
	compares += int64(j0 - j)
	if i <= j {
		compares++
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		s.compares += compares
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		i0 := i
		for i <= j && data[i].key < p {
			i++
		}
		compares += int64(i - i0)
		if i <= j {
			compares++
		}
		j0 := j
		for i <= j && !(data[j].key < p) {
			j--
		}
		compares += int64(j0 - j)
		if i <= j {
			compares++
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	s.compares += compares
	return j, false
}

// partitionEqual partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func (s *keySorter) partitionEqual(data []sortKey, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned
	p := data[a].key
	compares := int64(0)

	for {
		i0 := i
		for i <= j && !(p < data[i].key) {
			i++
		}
		compares += int64(i - i0)
		if i <= j {
			compares++
		}
		j0 := j
		for i <= j && p < data[j].key {
			j--
		}
		compares += int64(j0 - j)
		if i <= j {
			compares++
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	s.compares += compares
	return i
}

// partialInsertionSort partially sorts a slice, returns true if the slice is sorted at the end.
func (s *keySorter) partialInsertionSort(data []sortKey, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !s.less(data[i], data[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !s.less(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !s.less(data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatterns scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatterns(data []sortKey, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivot chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func (s *keySorter) choosePivot(data []sortKey, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = s.medianAdjacent(data, i, &swaps)
			j = s.medianAdjacent(data, j, &swaps)
			k = s.medianAdjacent(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = s.median(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func (s *keySorter) order2(data []sortKey, a, b int, swaps *int) (int, int) {
	if s.less(data[b], data[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// median returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func (s *keySorter) median(data []sortKey, a, b, c int, swaps *int) int {
	a, b = s.order2(data, a, b, swaps)
	b, c = s.order2(data, b, c, swaps)
	a, b = s.order2(data, a, b, swaps)
	return b
}

// medianAdjacent finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func (s *keySorter) medianAdjacent(data []sortKey, a int, swaps *int) int {
	return s.median(data, a-1, a, a+1, swaps)
}

func reverseRange(data []sortKey, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
