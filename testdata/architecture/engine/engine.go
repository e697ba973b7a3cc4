// Package engine is a fixture of TestArchitectureFixture (the repository
// root's architecture_test.go): every line that breaks one of its rows
// says so in a want comment, beside a use the row allows.
package engine

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"slices"
	"sync"
)

// Compare is a cost constant.
const Compare = 20

// Key is a boxed key.
type Key struct{ s string }

// Options are the fixture's knobs.
type Options struct {
	USB       int
	PlanCache int
}

// Config mirrors one of them.
type Config struct {
	usb  bool // want mirror
	path string
}

type engine struct {
	mu     sync.Mutex
	dev    int
	shards *int
}

type other struct {
	mu  sync.Mutex
	dev int
}

type cache struct {
	hits int // want def
}

type doc struct{ A int }

type hashes = map[uint64]int32 // want shape

func batchMode() {} // want def

// Estimate costs a plan.
func Estimate() int { return 1 }

func (e *engine) optimize() int { return Estimate() }

func (e *engine) cost() int { return Estimate() } // want caller

func (e *engine) cpu(c int64) {}

func (e *engine) charge() {
	e.cpu(Compare) // want operand
	e.cpu(5)
	if e.shards == nil { // want nil
		e.cpu(1)
	}
}

func sorted(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b }) // want call
	slices.Sort(xs)
}

func encode(d doc) ([]byte, error) {
	if _, err := json.Marshal("plain"); err != nil {
		return nil, err
	}
	return json.Marshal(d) // want marshal
}

func word(b []byte) uint32 { return binary.LittleEndian.Uint32(b) } // want file-allowed

type reader struct{ f *os.File }

func (r *reader) readPage(b []byte) error {
	_, err := r.f.ReadAt(b, 0) // want inside
	return err
}

func (r *reader) readAll(b []byte) error {
	_, err := r.f.ReadAt(b, 0)
	return err
}

var (
	groups map[uint64]int32 // want shape
	boxed  map[Key][]int    // want shape
	byName hashes           // want shape
	kept   map[string]int32
)
