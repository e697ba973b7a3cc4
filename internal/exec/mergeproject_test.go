package exec

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// refMergeRowsWithStreamBatch is the deleted MergeRowsWithStreamBatch,
// kept for refMergeProject: rows decoded a RowBatch at a time, each
// survivor handed to onMatch as a decoded Row.
func refMergeRowsWithStreamBatch(e *Env, rows BatchRowIter, field int, stream KVIter, op *stats.Op, onMatch func(Row, value.Value) error) error {
	defer rows.Close()
	defer stream.Close()
	cur, haveKV, err := stream.Next()
	if err != nil {
		return err
	}
	rb := e.NewRowBatch(1)
	defer PutRowBatch(rb)
	for {
		k, err := rows.Next(rb)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
		op.AddIn(int64(k))
		var compares, matched int64
		for i := 0; i < k; i++ {
			r := rb.Row(i)
			id := r.IDs[field]
			for haveKV && cur.ID < id {
				compares++
				cur, haveKV, err = stream.Next()
				if err != nil {
					e.cpuUnits(sim.CyclesCompare, compares)
					return err
				}
			}
			if haveKV && cur.ID == id {
				matched++
				if err := onMatch(r, cur.Val); err != nil {
					e.cpuUnits(sim.CyclesCompare, compares)
					return err
				}
			}
		}
		e.cpuUnits(sim.CyclesCompare, compares)
		op.AddOut(matched)
	}
}

// refMergeProject is the projection merge as the executor's merge pass
// composed it before MergeProject: a row-batch scan of the file, a
// writer opened after it for the rewrite, and one Write per survivor.
func refMergeProject(e *Env, rf *RowFile, field int, stream KVIter, rewrite bool, op *stats.Op, onMatch func(uint32, value.Value)) (*RowFileWriter, error) {
	rows, err := rf.IterBatch()
	if err != nil {
		return nil, err
	}
	var out *RowFileWriter
	if rewrite {
		if out, err = e.NewRowFileWriter(rf.Fields()); err != nil {
			rows.Close()
			return nil, err
		}
	}
	err = refMergeRowsWithStreamBatch(e, rows, field, stream, op, func(r Row, v value.Value) error {
		onMatch(r.Seq, v)
		if out != nil {
			return out.Write(r)
		}
		return nil
	})
	if err != nil {
		if out != nil {
			out.Abort()
		}
		return nil, err
	}
	return out, nil
}

// mergeProjectFunc is MergeProject's signature, which refMergeProject
// shares.
type mergeProjectFunc func(e *Env, rf *RowFile, field int, stream KVIter, rewrite bool, op *stats.Op, onMatch func(uint32, value.Value)) (*RowFileWriter, error)

// clockedKV is a projection stream that behaves as the bus-charged one
// does: every chunk elements its Next charges a message before returning.
// It records the clock at every call, the instant a bus send would see.
type clockedKV struct {
	e     *Env
	kvs   []KV
	i     int
	chunk int
	at    []int64
}

func (s *clockedKV) Next() (KV, bool, error) {
	s.at = append(s.at, int64(s.e.Dev.Clock.Now()))
	if s.i >= len(s.kvs) {
		return KV{}, false, nil
	}
	if s.i%s.chunk == 0 {
		s.e.cpu(5000) // the message
	}
	kv := s.kvs[s.i]
	s.i++
	return kv, true, nil
}

func (s *clockedKV) Close() {}

// mergeProjectInput is one case's row file and stream: n rows of fields
// IDs sorted by field, whose keys come from keyOf (ascending, duplicates
// allowed), and a stream holding the keys match admits plus IDs no row
// has, between and beyond them.
type mergeProjectInput struct {
	fields, field, n int
	keyOf            func(rng *rand.Rand, i int) uint32
	match            func(rng *rand.Rand, key uint32) bool
}

// mergeProjectCase materializes the input and runs mergeFn over it. The
// output is the callback sequence (seq, value), the clock at every
// stream.Next, the op's counters, the clock once the rewrite is settled,
// then the rewritten file.
func mergeProjectCase(in mergeProjectInput, rewrite bool, mergeFn mergeProjectFunc) diffCase {
	return func(t *testing.T, e *Env, rng *rand.Rand) ([]uint32, error) {
		rows := make([][]uint32, in.n)
		keys := make([]uint32, in.n)
		for i := range keys {
			keys[i] = in.keyOf(rng, i)
		}
		slices.Sort(keys)
		for i := range rows {
			rows[i] = make([]uint32, in.fields)
			for f := range rows[i] {
				rows[i][f] = uint32(f)<<24 | uint32(i+1)
			}
			rows[i][in.field] = keys[i]
		}
		rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, in.fields, true, op())
		if err != nil {
			t.Fatal(err)
		}
		var kvs []KV
		for i, k := range slices.Compact(keys) {
			if i%3 == 0 && k > 0 {
				kvs = append(kvs, KV{ID: k - 1}) // no row has this one unless k-1 is a key too
			}
			if in.match(rng, k) {
				kvs = append(kvs, KV{ID: k})
			}
		}
		kvs = slices.CompactFunc(kvs, func(a, b KV) bool { return a.ID == b.ID })
		if len(keys) > 0 {
			kvs = append(kvs, KV{ID: keys[len(keys)-1] + 1})
		}
		for i := range kvs {
			kvs[i].Val = value.NewInt(int64(kvs[i].ID) * 3)
		}
		stream := &clockedKV{e: e, kvs: kvs, chunk: 37}
		o := op()
		var got []uint32
		w, err := mergeFn(e, rf, in.field, stream, rewrite, o, func(seq uint32, v value.Value) {
			got = append(got, seq, uint32(v.Int()))
		})
		for _, at := range stream.at {
			got = append(got, uint32(at>>32), uint32(at))
		}
		got = append(got, uint32(o.TuplesIn), uint32(o.TuplesOut))
		if err != nil {
			return got, err
		}
		if w == nil {
			return got, nil
		}
		w.Settle()
		now := int64(e.Dev.Clock.Now())
		got = append(got, uint32(now>>32), uint32(now))
		out, err := w.Close()
		if err != nil {
			return got, err
		}
		return scanRowFile(t, e, out, got), nil
	}
}

// mergeProjectInputs are the differential's inputs: every record width
// from 8 to 20 bytes, keyed on the first and the last field, with every
// row matched, none, a random half, and runs of duplicate keys.
func mergeProjectInputs() map[string]mergeProjectInput {
	all := func(*rand.Rand, uint32) bool { return true }
	none := func(*rand.Rand, uint32) bool { return false }
	gappy := func(rng *rand.Rand, _ uint32) bool { return rng.Intn(2) == 0 }
	distinct := func(_ *rand.Rand, i int) uint32 { return uint32(2*i + 1) }
	dup := func(rng *rand.Rand, _ int) uint32 { return uint32(1 + rng.Intn(40)) }
	out := map[string]mergeProjectInput{}
	for fields := 1; fields <= 4; fields++ {
		for _, field := range slices.Compact([]int{0, fields - 1}) {
			for _, n := range []int{0, 1, 300, 3000} {
				for mname, match := range map[string]func(*rand.Rand, uint32) bool{"all": all, "none": none, "gappy": gappy} {
					for kname, keyOf := range map[string]func(*rand.Rand, int) uint32{"distinct": distinct, "dup": dup} {
						name := fmt.Sprintf("fields=%d/by=%d/n=%d/%s/%s", fields, field, n, kname, mname)
						out[name] = mergeProjectInput{fields, field, n, keyOf, match}
					}
				}
			}
		}
	}
	return out
}

// TestDifferentialMergeProject holds the run-copy projection merge to the
// record-at-a-time composition it replaced, at batch lengths 1, 7 and
// 1024 on the paper's device and the 16KB one: the same callbacks in the
// same order, the same clock at every stream.Next (a page the rewrite
// programs between two bus sends stays between them), the same rewritten
// file, clock, flash traffic, RAM high-water and leftover RAM, with the
// rewrite on and off. The failop case fails the merge mid-way: a typed
// error, no grant left and no scratch writer held.
func TestDifferentialMergeProject(t *testing.T) {
	for name, in := range mergeProjectInputs() {
		for _, rewrite := range []bool{false, true} {
			for pname, prof := range diffProfiles() {
				t.Run(fmt.Sprintf("%s/rewrite=%v/%s", name, rewrite, pname), func(t *testing.T) {
					for _, n := range diffLens {
						want := diffOn(t, prof, n, mergeProjectCase(in, rewrite, refMergeProject))
						if got := diffOn(t, prof, n, mergeProjectCase(in, rewrite, (*Env).MergeProject)); got != want {
							t.Fatalf("batch length %d: MergeProject diverges from the reference:\n got %s\nwant %s", n, got, want)
						}
					}
				})
			}
		}
	}

	t.Run("failop", func(t *testing.T) {
		in := mergeProjectInputs()["fields=3/by=2/n=3000/dup/gappy"]
		prof := diffProfiles()["tiny"]
		faulty := func(inj *fault.Injector) diffCase {
			return mergeProjectCase(in, true, func(e *Env, rf *RowFile, field int, stream KVIter, rewrite bool, o *stats.Op, onMatch func(uint32, value.Value)) (*RowFileWriter, error) {
				e.Dev.Flash.SetInjector(inj)
				defer e.Dev.Flash.SetInjector(nil)
				return e.MergeProject(rf, field, stream, rewrite, o, onMatch)
			})
		}
		counted := fault.New(&fault.Plan{}, 0)
		diffOn(t, prof, 0, faulty(counted))
		ops := counted.Ops()
		if ops < 4 {
			t.Fatalf("the merge takes %d device ops: nothing to fail in the middle", ops)
		}
		for _, failAt := range []int64{ops / 3, ops / 2, ops - 1} {
			t.Run(fmt.Sprintf("op=%d", failAt), func(t *testing.T) {
				e := NewEnv(mustDevice(t, prof))
				_, err := faulty(fault.New(&fault.Plan{FailAtOp: failAt}, 0))(t, e, rand.New(rand.NewSource(15)))
				if !errors.Is(err, fault.ErrPermanent) {
					t.Fatalf("fault at op %d: got %v, want %v", failAt, err, fault.ErrPermanent)
				}
				if used := e.Dev.RAM.Used(); used != 0 {
					t.Errorf("%d bytes of RAM still granted: %v", used, e.Dev.RAM.Snapshot())
				}
				w, err := e.Dev.Scratch.NewWriter()
				if err != nil {
					t.Fatalf("the failed merge kept the scratch writer: %v", err)
				}
				if _, err := w.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// refMergeRowRunsPerRecord is mergeRowRuns as it stood before streaks,
// kept for FuzzMergeRuns: one scan of the heads and one move per record.
func refMergeRowRunsPerRecord(e *Env, runs []*RowFile, byField int) (*RowFile, int64, int64, error) {
	fields, width := runs[0].fields, runs[0].recordWidth()
	slab := make([]runHead, len(runs))
	heads := make([]*runHead, 0, len(runs))
	keys := make([]uint32, 0, len(runs))
	var read, compares int64
	settle := func() {
		e.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+fields), read)
		e.cpuUnits(sim.CyclesCompare, compares)
		for i := range slab {
			slab[i].close()
		}
	}
	for i, r := range runs {
		h := &slab[i]
		if err := e.Dev.RAM.AllocInto(&h.grant, e.pageSize(), "row-reader"); err != nil {
			settle()
			return nil, read, compares, err
		}
		h.rr.r = flash.NewReader(e.Dev.Flash, r.ext)
		ok, err := h.next(width)
		if err != nil {
			settle()
			return nil, read, compares, err
		}
		if !ok {
			h.close()
			continue
		}
		read++
		heads = append(heads, h)
		keys = append(keys, recordKey(h.recs, byField))
	}
	var wGrant ram.Grant
	if err := e.Dev.RAM.AllocInto(&wGrant, e.pageSize(), "merge-writer"); err != nil {
		settle()
		return nil, read, compares, err
	}
	defer wGrant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		settle()
		return nil, read, compares, err
	}
	fail := func(err error) (*RowFile, int64, int64, error) {
		settle()
		_, _ = w.close()
		return nil, read, compares, err
	}
	n := 0
	for len(keys) > 0 {
		best := 0
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[best] {
				best = i
			}
		}
		compares += int64(len(keys) - 1)
		h := heads[best]
		if err := w.moveRun(h.recs[:width]); err != nil {
			return fail(err)
		}
		n++
		ok, err := h.next(width)
		if err != nil {
			return fail(err)
		}
		if ok {
			read++
			keys[best] = recordKey(h.recs, byField)
			continue
		}
		h.close()
		heads = slices.Delete(heads, best, best+1)
		keys = slices.Delete(keys, best, best+1)
	}
	settle()
	ext, err := w.close()
	if err != nil {
		return nil, read, compares, err
	}
	return &RowFile{env: e, ext: ext, n: n, fields: fields}, read, compares, nil
}

// mergeRunsOutcome is what a run merge produced and spent.
type mergeRunsOutcome struct {
	bytes           string // the merged run's record bytes
	read, compares  int64
	clock           int64
	flash           flash.Stats
	ramHigh, ramUse int64
	err             string
}

// FuzzMergeRuns holds the streak merge to the per-record one on random
// sorted runs over a small key alphabet (1–6 keys, so streaks and ties
// between runs are the rule) and every record width from 8 to 20 bytes,
// widths that tile the 2 KB page and widths that straddle it: the same
// output bytes (ties resolved to the lower-numbered run, visible through
// the sequence numbers), reads, compares, clock, flash traffic and RAM.
func FuzzMergeRuns(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), []byte{3})
	f.Add(int64(2), uint8(1), uint8(2), uint8(5), []byte{200, 0, 17, 255, 90})
	f.Add(int64(3), uint8(2), uint8(3), uint8(1), []byte{255, 255, 255})
	f.Add(int64(4), uint8(3), uint8(5), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, seed int64, fieldsB, alphaB, byB uint8, lens []byte) {
		if len(lens) == 0 {
			return
		}
		if len(lens) > 12 {
			lens = lens[:12]
		}
		fields := 1 + int(fieldsB%4)
		alphabet := 1 + int(alphaB%6)
		byField := int(byB) % fields
		run := func(merge func(*Env, []*RowFile, int) (*RowFile, int64, int64, error)) mergeRunsOutcome {
			e := NewEnv(mustDevice(t, diffProfiles()["default"]))
			rng := rand.New(rand.NewSource(seed))
			runs := make([]*RowFile, len(lens))
			seq := uint32(0)
			for r, l := range lens {
				n := 1 + 3*int(l)
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = uint32(rng.Intn(alphabet))
				}
				slices.Sort(keys)
				rows := make([][]uint32, n)
				seqs := make([]uint32, n)
				for i := range rows {
					rows[i] = make([]uint32, fields)
					for f := range rows[i] {
						rows[i][f] = uint32(r)<<16 | uint32(f)<<12 | uint32(i)
					}
					rows[i][byField] = keys[i]
					seqs[i] = seq
					seq++
				}
				rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows, seqs: seqs}, fields, false, op())
				if err != nil {
					t.Fatal(err)
				}
				runs[r] = rf
			}
			ram0 := e.Dev.RAM.High()
			clock0, flash0 := e.Dev.Clock.Now(), e.Dev.Flash.Stats()
			merged, read, compares, err := merge(e, runs, byField)
			o := mergeRunsOutcome{
				read: read, compares: compares,
				clock: int64(e.Dev.Clock.Now() - clock0), flash: e.Dev.Flash.Stats().Sub(flash0),
				ramHigh: e.Dev.RAM.High() - ram0, ramUse: e.Dev.RAM.Used(),
			}
			if err != nil {
				o.err = err.Error()
				return o
			}
			r := flash.NewReader(e.Dev.Flash, merged.ext)
			defer r.Release()
			b, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			o.bytes = string(b)
			return o
		}
		want := run(refMergeRowRunsPerRecord)
		got := run((*Env).mergeRowRuns)
		if got.bytes != want.bytes {
			t.Fatalf("merged bytes differ (%d vs %d bytes)", len(got.bytes), len(want.bytes))
		}
		if got != want {
			t.Fatalf("streak merge spent\n%+v\nthe per-record merge\n%+v", got, want)
		}
	})
}
