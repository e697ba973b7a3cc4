package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// The operator-level cost differential. internal/exec has one operator
// set, the batch one. What holds its cost model is not a live twin but a
// frozen one: testdata/twin_golden.txt records, per case and device, what
// the element-at-a-time operators (Union, MergeIntersect, Translate,
// SpillIDs, MaterializeRows, RowFile.Iter — same algorithms, one element
// per call) produced and spent on these very cases at commit 1d9ffd5, the
// last commit that had them. Every case runs at batch lengths 1, 7 and
// 1024 on identical seeded inputs, each on its own fresh device, and must
// reproduce that record — output, simulated clock, flash statistics, RAM
// high-water, leftover RAM, error text — which also makes the three
// lengths agree with each other: batching may only change host time.
// The file is never regenerated from the surviving operators; a case
// added later has no twin to be held to and belongs in a test of its own.

// diffLens are the batch lengths held to the frozen twin.
var diffLens = []int{1, 7, 1024}

const twinGoldenPath = "testdata/twin_golden.txt"

// diffProfiles are the devices every case runs on: the paper's, and the
// 16KB one on which every merge spills.
func diffProfiles() map[string]device.Profile {
	tiny := device.SmartUSB2007().WithRAM(16 << 10)
	tiny.CacheFrames = 2
	return map[string]device.Profile{"default": device.SmartUSB2007(), "tiny": tiny}
}

// diffOutcome is everything a case may produce or spend.
type diffOutcome struct {
	Out     []uint32
	Err     string
	Clock   time.Duration
	Flash   flash.Stats
	RAMHigh int64
	RAMUsed int64 // after the case: a leaked grant is a cost too
}

// twinRecord renders one outcome as a golden line: the case (the subtest
// name, which ends in the device profile), the output as count:digest,
// and every cost verbatim.
func twinRecord(name string, o diffOutcome) string {
	h := fnv.New64a()
	fmt.Fprint(h, o.Out)
	f := o.Flash
	return fmt.Sprintf("%s out=%d:%016x clock=%d flash=%d/%d/%d/%d/%d/%d/%d/%d ramhigh=%d ramused=%d err=%q",
		name, len(o.Out), h.Sum64(), int64(o.Clock),
		f.PageReads, f.PagesProgrammed, f.BlockErases, f.BytesRead, f.BytesProgrammed,
		int64(f.ReadTime), int64(f.ProgTime), int64(f.EraseTime),
		o.RAMHigh, o.RAMUsed, o.Err)
}

// frozenTwin returns the golden line of the running subtest.
func frozenTwin(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(twinGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, t.Name()+" ") {
			return line
		}
	}
	t.Fatalf("%s has no record for %s", twinGoldenPath, t.Name())
	return ""
}

// diffCase builds its inputs on e from rng (identically on every device:
// setup is part of the compared cost) and runs the operator under test.
type diffCase func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error)

// runDifferential holds c to the frozen twin at every batch length, on
// every device. refs are in-process references for the same case; they
// run once, at the default length, and are held to the same record.
func runDifferential(t *testing.T, c diffCase, refs ...diffCase) {
	t.Helper()
	for name, prof := range diffProfiles() {
		t.Run(name, func(t *testing.T) {
			want := frozenTwin(t)
			check := func(what string, batchLen int, run diffCase) {
				if got := diffOn(t, prof, batchLen, run); got != want {
					t.Fatalf("%s diverges from the frozen twin:\n got %s\nwant %s", what, got, want)
				}
			}
			for _, ref := range refs {
				check("the in-process reference", 0, ref)
			}
			for _, n := range diffLens {
				check(fmt.Sprintf("batch length %d", n), n, c)
			}
		})
	}
}

// diffOn runs c on a fresh device of profile prof at batch length
// batchLen (0: the default) and renders what it produced and spent as the
// running subtest's twin record.
func diffOn(t *testing.T, prof device.Profile, batchLen int, c diffCase) string {
	t.Helper()
	dev := mustDevice(t, prof)
	e := NewEnv(dev)
	if batchLen > 0 {
		e.SetBatchLen(batchLen)
	}
	out, err := c(t, e, rand.New(rand.NewSource(15)))
	o := diffOutcome{
		Out: out, Clock: dev.Clock.Now(), Flash: dev.Flash.Stats(),
		RAMHigh: dev.RAM.High(), RAMUsed: dev.RAM.Used(),
	}
	if err != nil {
		o.Err = err.Error()
	}
	return twinRecord(t.Name(), o)
}

func mustDevice(t *testing.T, prof device.Profile) *device.Device {
	t.Helper()
	dev, err := device.New(prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// randomSorted returns n distinct ascending IDs drawn from 1..max.
func randomSorted(rng *rand.Rand, n, max int) []uint32 {
	picked := rng.Perm(max)[:n]
	out := make([]uint32, n)
	for i, p := range picked {
		out[i] = uint32(p + 1)
	}
	return sorted(out)
}

// spillRuns spills k random lists, so every device starts the measured
// operator from the same scratch state.
func spillRuns(t *testing.T, e *Env, rng *rand.Rand, k, n, max int) []RunSource {
	t.Helper()
	runs := make([]RunSource, k)
	for i := range runs {
		run, err := e.SpillBatch(&sliceBatch{ids: randomSorted(rng, n, max)}, op())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	return runs
}

// drainBatch collects a batch stream at the environment's batch length.
func drainBatch(e *Env, it BatchIter) ([]uint32, error) {
	defer it.Close()
	buf := make([]uint32, e.batchCap())
	var out []uint32
	for {
		n, err := it.Next(buf)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// unionCase merges k spilled runs, an in-RAM list and the posting lists
// of a climbing index under the given fan-in.
func unionCase(k, fanin int) diffCase {
	return func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		ix := translateFixtureOn(t, e, 60)
		var sources []IDSource
		for _, run := range spillRuns(t, e, rng, k, 120, 900) {
			sources = append(sources, run)
		}
		sources = append(sources, SliceSource{IDs: randomSorted(rng, 50, 900)})
		for _, c := range randomSorted(rng, 6, 60) {
			entry, ok, err := ix.LookupEq(intValue(c))
			if err != nil || !ok {
				t.Fatalf("lookup %d: %v %v", c, ok, err)
			}
			sources = append(sources, ClimbSource{Env: e, Ix: ix, Ref: entry.Lists[1]})
		}
		it, err := e.UnionBatch(sources, fanin, op())
		if err != nil {
			return nil, err
		}
		return drainBatch(e, it)
	}
}

func TestDifferentialUnionSinglePass(t *testing.T) { runDifferential(t, unionCase(2, 64)) }
func TestDifferentialUnionMultiPass(t *testing.T)  { runDifferential(t, unionCase(30, 4)) }

// TestDifferentialMergeIntersect intersects a union with two runs: the
// intersection abandons its inputs mid-stream, so a batch input that
// read ahead of the demand would show up as extra flash and clock.
func TestDifferentialMergeIntersect(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		runs := spillRuns(t, e, rng, 4, 700, 1000)
		short, err := e.SpillBatch(&sliceBatch{ids: randomSorted(rng, 300, 600)}, op())
		if err != nil {
			t.Fatal(err)
		}
		u, err := e.UnionBatch([]IDSource{runs[0], runs[1]}, 8, op())
		if err != nil {
			return nil, err
		}
		its := []BatchIter{u}
		for _, r := range []RunSource{runs[2], short, runs[3]} {
			it, err := r.OpenBatch()
			if err != nil {
				return nil, err
			}
			its = append(its, it)
		}
		x, err := e.MergeIntersectBatch(its)
		if err != nil {
			return nil, err
		}
		return drainBatch(e, x)
	})
}

// TestDifferentialTranslate climbs a spilled child list one level, with
// a fan-in small enough to spill batches of merged posting lists and
// with one large enough not to.
func TestDifferentialTranslate(t *testing.T) {
	for _, fanin := range []int{3, 64} {
		t.Run(fmt.Sprintf("fanin=%d", fanin), func(t *testing.T) {
			runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
				ix := translateFixtureOn(t, e, 1500)
				// IDs past the dictionary are skipped, not errors.
				run := spillRuns(t, e, rng, 1, 400, 1600)[0]
				o := op()
				in, err := run.OpenBatch()
				if err != nil {
					return nil, err
				}
				it, err := e.TranslateBatch(in, ix, 1, fanin, o)
				if err != nil {
					return nil, err
				}
				out, err := drainBatch(e, it)
				if err != nil {
					return nil, err
				}
				return append(out, uint32(o.TuplesIn), uint32(o.TuplesOut)), nil
			})
		})
	}
}

// TestDifferentialSpillAndReopen spills a list and streams it back twice.
func TestDifferentialSpillAndReopen(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		ids := randomSorted(rng, 5000, 1<<20)
		var out []uint32
		run, err := e.SpillBatch(&sliceBatch{ids: ids}, op())
		if err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			it, err := run.OpenBatch()
			if err != nil {
				return nil, err
			}
			got, err := drainBatch(e, it)
			if err != nil {
				return nil, err
			}
			out = append(out, got...)
		}
		return out, nil
	})
}

// TestDifferentialMaterializeAndIterate stores a row stream (fresh
// sequence numbers) and scans the row file back.
func TestDifferentialMaterializeAndIterate(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		rows := make([][]uint32, 3000)
		for i := range rows {
			rows[i] = []uint32{uint32(i + 1), rng.Uint32(), rng.Uint32()}
		}
		rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, 3, true, op())
		if err != nil {
			return nil, err
		}
		return scanRowFile(t, e, rf, nil), nil
	})
}

// scanRowFile appends rf's rows to out as seq, ids... records.
func scanRowFile(t *testing.T, e *Env, rf *RowFile, out []uint32) []uint32 {
	t.Helper()
	seqs, rows := collectRows(t, e, rf)
	for i, ids := range rows {
		out = append(append(out, seqs[i]), ids...)
	}
	return out
}

// refRowReader is the deleted RowFile.Iter, kept for refSortRowFile: one
// page buffer, one flash read and one copy charge per record.
type refRowReader struct {
	rf     *RowFile
	reader *flash.Reader
	grant  *ram.Grant
	rec    []byte
	ids    []uint32
	read   int
}

func newRefRowReader(rf *RowFile) (*refRowReader, error) {
	grant, err := rf.env.Dev.RAM.Alloc(rf.env.pageSize(), "row-reader")
	if err != nil {
		return nil, err
	}
	return &refRowReader{rf: rf, reader: flash.NewReader(rf.env.Dev.Flash, rf.ext), grant: grant,
		rec: make([]byte, rf.recordWidth()), ids: make([]uint32, rf.fields)}, nil
}

func (it *refRowReader) Next() (Row, bool, error) {
	if it.read >= it.rf.n {
		return Row{}, false, nil
	}
	if _, err := io.ReadFull(it.reader, it.rec); err != nil {
		return Row{}, false, err
	}
	it.read++
	for i := range it.ids {
		it.ids[i] = binary.LittleEndian.Uint32(it.rec[4*(i+1):])
	}
	it.rf.env.cpu(int64(sim.CyclesCopyWord) * int64(1+len(it.ids)))
	return Row{Seq: binary.LittleEndian.Uint32(it.rec), IDs: it.ids}, true, nil
}

func (it *refRowReader) Close() { it.grant.Free() }

// refSortRowFile is SortRowFile as it stood before the counted-compare run
// sort, kept as the in-process reference of TestDifferentialSortRowFile:
// run formation reads one record at a time, sorts an index permutation
// with sort.Slice and charges one compare inside every comparator call;
// the merge passes decode and re-encode every row (refMergeRowRuns).
func refSortRowFile(e *Env, rf *RowFile, byField, bufBytes, fanin int, op *stats.Op) (*RowFile, error) {
	width := rf.recordWidth()
	capRecords := bufBytes / width
	if capRecords < 2 {
		capRecords = 2
	}
	grant, err := e.Dev.RAM.Alloc(capRecords*width, "sort-buffer")
	if err != nil {
		return nil, err
	}
	op.NoteRAM(int64(capRecords * width))

	var runs []*RowFile
	in, err := newRefRowReader(rf)
	if err != nil {
		grant.Free()
		return nil, err
	}
	buf := make([]byte, 0, capRecords*width)
	keyAt := func(b []byte, i int) uint32 {
		return binary.LittleEndian.Uint32(b[i*width+4*(1+byField):])
	}
	flushRun := func() error {
		nRec := len(buf) / width
		if nRec == 0 {
			return nil
		}
		idx := make([]int, nRec)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			e.cpu(sim.CyclesCompare)
			return keyAt(buf, idx[a]) < keyAt(buf, idx[b])
		})
		w, err := e.Dev.Scratch.NewWriter()
		if err != nil {
			return err
		}
		for _, i := range idx {
			if _, err := w.Write(buf[i*width : (i+1)*width]); err != nil {
				return err
			}
		}
		ext, err := w.Close()
		if err != nil {
			return err
		}
		runs = append(runs, &RowFile{env: e, ext: ext, n: nRec, fields: rf.fields})
		buf = buf[:0]
		return nil
	}
	rec := make([]byte, width)
	for {
		r, ok, err := in.Next()
		if err != nil {
			in.Close()
			grant.Free()
			return nil, err
		}
		if !ok {
			break
		}
		op.AddIn(1)
		binary.LittleEndian.PutUint32(rec[0:], r.Seq)
		for i, id := range r.IDs {
			binary.LittleEndian.PutUint32(rec[4*(i+1):], id)
		}
		buf = append(buf, rec...)
		if len(buf) == capRecords*width {
			if err := flushRun(); err != nil {
				in.Close()
				grant.Free()
				return nil, err
			}
		}
	}
	in.Close()
	err = flushRun()
	grant.Free()
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return &RowFile{env: e, fields: rf.fields}, nil
	}
	for len(runs) > 1 {
		f := e.clampFanin(fanin)
		var next []*RowFile
		for start := 0; start < len(runs); start += f {
			end := min(start+f, len(runs))
			merged, err := refMergeRowRuns(e, runs[start:end], byField)
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	op.AddOut(int64(runs[0].n))
	return runs[0], nil
}

// refMergeRowRuns is mergeRowRuns as it stood before records moved as
// bytes, kept for refSortRowFile: each run is decoded a RowBatch at a time
// and the winning row re-encoded into the output page.
func refMergeRowRuns(e *Env, runs []*RowFile, byField int) (*RowFile, error) {
	type head struct {
		it    BatchRowIter
		batch *RowBatch
		pos   int
		row   Row
	}
	var heads []*head
	closeAll := func() {
		for _, h := range heads {
			h.it.Close()
			PutRowBatch(h.batch)
		}
	}
	// advance loads the head's next row, refilling its batch as needed;
	// ok=false means the run is exhausted.
	advance := func(h *head) (bool, error) {
		if h.pos >= h.batch.Len() {
			k, err := h.it.Next(h.batch)
			if err != nil {
				return false, err
			}
			if k == 0 {
				return false, nil
			}
			h.pos = 0
		}
		h.row = h.batch.Row(h.pos)
		h.pos++
		return true, nil
	}
	for _, r := range runs {
		it, err := r.IterBatch()
		if err != nil {
			closeAll()
			return nil, err
		}
		h := &head{it: it, batch: GetRowBatch(r.fields)}
		ok, err := advance(h)
		if err != nil {
			it.Close()
			PutRowBatch(h.batch)
			closeAll()
			return nil, err
		}
		if !ok {
			it.Close()
			PutRowBatch(h.batch)
			continue
		}
		heads = append(heads, h)
	}
	wGrant, err := e.Dev.RAM.Alloc(e.pageSize(), "merge-writer")
	if err != nil {
		closeAll()
		return nil, err
	}
	defer wGrant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		closeAll()
		return nil, err
	}
	n := 0
	var compares int64
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			compares++
			if heads[i].row.IDs[byField] < heads[best].row.IDs[byField] {
				best = i
			}
		}
		h := heads[best]
		if err := w.putRow(h.row.Seq, h.row.IDs); err != nil {
			e.cpuUnits(sim.CyclesCompare, compares)
			closeAll()
			return nil, err
		}
		n++
		ok, err := advance(h)
		if err != nil {
			e.cpuUnits(sim.CyclesCompare, compares)
			closeAll()
			return nil, err
		}
		if !ok {
			h.it.Close()
			PutRowBatch(h.batch)
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	e.cpuUnits(sim.CyclesCompare, compares)
	ext, err := w.close()
	if err != nil {
		return nil, err
	}
	return &RowFile{env: e, ext: ext, n: n, fields: runs[0].fields}, nil
}

// sortKeyShapes are the key distributions the sort differential covers;
// each returns the sort key of row i of n.
var sortKeyShapes = map[string]func(rng *rand.Rand, i, n int) uint32{
	"all-equal":       func(*rand.Rand, int, int) uint32 { return 7 },
	"heavy-duplicate": func(rng *rand.Rand, _, _ int) uint32 { return uint32(rng.Intn(5)) },
	"presorted":       func(_ *rand.Rand, i, _ int) uint32 { return uint32(i) },
	"reversed":        func(_ *rand.Rand, i, n int) uint32 { return uint32(n - i) },
	"random":          func(rng *rand.Rand, _, _ int) uint32 { return rng.Uint32() },
}

// sortFunc is SortRowFile's signature, which refSortRowFile shares.
type sortFunc func(e *Env, rf *RowFile, byField, bufBytes, fanin int, op *stats.Op) (*RowFile, error)

// sortBuffer sizes a sort's run buffer and fan-in on its device.
type sortBuffer func(e *Env) (bufBytes, fanin int)

// executorBuffer sizes them the way the projection passes do.
func executorBuffer(e *Env) (int, int) { return int(e.Dev.RAM.Available()) / 2, e.Fanin(0.25) }

// sortCase materializes n rows of fields IDs — ID byField drawn from
// keyOf, every other ID f<<24 | the row's number — and sorts them by
// byField with sortFn. The output is the op's in/out/RAM, then the sorted
// file, sequence numbers included.
func sortCase(fields, byField, n int, keyOf func(*rand.Rand, int, int) uint32, buffer sortBuffer, sortFn sortFunc) diffCase {
	return func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = make([]uint32, fields)
			for f := range rows[i] {
				rows[i][f] = uint32(f)<<24 | uint32(i+1)
			}
			rows[i][byField] = keyOf(rng, i, n)
		}
		rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, fields, true, op())
		if err != nil {
			t.Fatal(err)
		}
		bufBytes, fanin := buffer(e)
		o := op()
		sortedRF, err := sortFn(e, rf, byField, bufBytes, fanin, o)
		if err != nil {
			return nil, err
		}
		return scanRowFile(t, e, sortedRF, []uint32{uint32(o.TuplesIn), uint32(o.TuplesOut), uint32(o.RAMBytes)}), nil
	}
}

// TestDifferentialSortRowFile holds the counted-compare run sort to the
// per-comparison reference, and both to the reference's frozen outcome:
// the same rows in the same order (ties are visible through the sequence
// numbers), the same comparison count (the clock), the same flash traffic,
// RAM high-water and leftover RAM. The row
// counts straddle pdqsort's insertion-sort cutoff (12) and the run
// capacity (64 records, fan-in 3: the last case merges in several passes);
// the "executor" buffer is sized the way the projection passes size it.
//
// The frozen cases sort 12-byte records by their last field. The
// "fields=" cases, which have no frozen record, hold the sort to the
// reference alone on every record width from 8 to 20 bytes (records that
// tile the 2 KB page and records that straddle it), keyed on the first
// and on the last field; on the 16KB device the fan-in clamps to 2 and the
// 5 000 rows merge in three passes or more. The "failop" cases put a
// permanent fault in run formation and in the middle of the merges.
func TestDifferentialSortRowFile(t *testing.T) {
	const fields, byField, smallCap = 2, 1, 64
	width := 4 * (1 + fields)
	buffers := map[string]sortBuffer{
		"cap=64":   func(*Env) (int, int) { return smallCap * width, 3 },
		"executor": executorBuffer,
	}
	for bufName, buffer := range buffers {
		for shape, keyOf := range sortKeyShapes {
			for _, n := range []int{0, 1, 2, 12, 13, smallCap - 1, smallCap, smallCap + 1, 5000} {
				t.Run(fmt.Sprintf("%s/%s/n=%d", bufName, shape, n), func(t *testing.T) {
					runDifferential(t, sortCase(fields, byField, n, keyOf, buffer, (*Env).SortRowFile),
						sortCase(fields, byField, n, keyOf, buffer, refSortRowFile))
				})
			}
		}
	}

	const wideRows = 5000
	for fields := 1; fields <= 4; fields++ {
		for _, byField := range slices.Compact([]int{0, fields - 1}) {
			for shape, keyOf := range sortKeyShapes {
				for name, prof := range diffProfiles() {
					t.Run(fmt.Sprintf("fields=%d/by=%d/%s/%s", fields, byField, shape, name), func(t *testing.T) {
						if name == "tiny" {
							// Three merge passes at fan-in 2 need more than four runs.
							bufBytes, fanin := executorBuffer(NewEnv(mustDevice(t, prof)))
							if capRecords := bufBytes / (4 * (1 + fields)); fanin != 2 || wideRows <= 4*capRecords {
								t.Fatalf("fan-in %d, %d-record runs: fewer than three merge passes", fanin, capRecords)
							}
						}
						want := diffOn(t, prof, 0, sortCase(fields, byField, wideRows, keyOf, executorBuffer, refSortRowFile))
						if got := diffOn(t, prof, 0, sortCase(fields, byField, wideRows, keyOf, executorBuffer, (*Env).SortRowFile)); got != want {
							t.Fatalf("the sort diverges from the reference:\n got %s\nwant %s", got, want)
						}
					})
				}
			}
		}
	}

	t.Run("failop", func(t *testing.T) {
		prof := diffProfiles()["tiny"]
		faulty := func(inj *fault.Injector, sortFn sortFunc) diffCase {
			return sortCase(2, 1, wideRows, sortKeyShapes["random"], executorBuffer,
				func(e *Env, rf *RowFile, byField, bufBytes, fanin int, o *stats.Op) (*RowFile, error) {
					e.Dev.Flash.SetInjector(inj)
					defer e.Dev.Flash.SetInjector(nil)
					return sortFn(e, rf, byField, bufBytes, fanin, o)
				})
		}
		// The device ops of a fault-free sort, to the end of run formation
		// and to the end of the merges.
		formedBy, sortedBy := fault.New(&fault.Plan{}, 0), fault.New(&fault.Plan{}, 0)
		diffOn(t, prof, 0, faulty(formedBy, func(e *Env, rf *RowFile, byField, bufBytes, _ int, o *stats.Op) (*RowFile, error) {
			_, err := e.formRuns(rf, byField, bufBytes/rf.recordWidth(), o)
			return &RowFile{env: e, fields: rf.fields}, err
		}))
		diffOn(t, prof, 0, faulty(sortedBy, (*Env).SortRowFile))
		formed, sorted := formedBy.Ops(), sortedBy.Ops()
		if formed < 2 || sorted-formed < 2 {
			t.Fatalf("%d ops to form the runs, %d to merge them: nothing to fail in between", formed, sorted-formed)
		}
		for phase, failAt := range map[string]int64{"formation": formed / 2, "merge": (formed + sorted) / 2} {
			t.Run(phase, func(t *testing.T) {
				e := NewEnv(mustDevice(t, prof))
				_, err := faulty(fault.New(&fault.Plan{FailAtOp: failAt}, 0), (*Env).SortRowFile)(t, e, rand.New(rand.NewSource(15)))
				if !errors.Is(err, fault.ErrPermanent) {
					t.Fatalf("fault at op %d: got %v, want %v", failAt, err, fault.ErrPermanent)
				}
				if used := e.Dev.RAM.Used(); used != 0 {
					t.Errorf("%d bytes of RAM still granted: %v", used, e.Dev.RAM.Snapshot())
				}
				w, err := e.Dev.Scratch.NewWriter()
				if err != nil {
					t.Fatalf("the failed sort kept the scratch writer: %v", err)
				}
				if _, err := w.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}
