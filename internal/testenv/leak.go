package testenv

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// RunLeakAudited runs a package's tests (m.Run) and then audits its
// goroutines: when the tests passed, it waits up to about a second for
// every goroutine outside the runtime and the testing package to end,
// and fails the run with the stacks of those still alive. Use it from a
// package's TestMain: os.Exit(testenv.RunLeakAudited(m)).
func RunLeakAudited(m *testing.M) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		if leaked = leakedGoroutines(); len(leaked) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "FAIL: %d goroutine(s) still running after the tests:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
	return 1
}

// leakedGoroutines returns the stack of every goroutine but the caller's
// that runs a function outside the runtime and the testing package.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The first block is the calling goroutine's.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !isMachinery(g) {
			out = append(out, g)
		}
	}
	return out
}

// isMachinery reports whether every function frame of a goroutine's
// stack belongs to the runtime or the testing package. A frame line is
// an unindented function call below the "goroutine N [state]:" header;
// "created by" lines name the creator, not a frame.
func isMachinery(stack string) bool {
	lines := strings.Split(stack, "\n")
	for _, l := range lines[1:] {
		if l == "" || strings.HasPrefix(l, "\t") || strings.HasPrefix(l, "created by ") {
			continue
		}
		if !strings.HasPrefix(l, "runtime.") && !strings.HasPrefix(l, "testing.") {
			return false
		}
	}
	return true
}
