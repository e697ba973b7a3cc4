package baseline_test

import (
	"os"
	"testing"

	"github.com/ghostdb/ghostdb/internal/testenv"
)

// TestMain fails the package's run when a goroutine it started outlives
// its tests.
func TestMain(m *testing.M) { os.Exit(testenv.RunLeakAudited(m)) }
