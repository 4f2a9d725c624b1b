package provhttp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/path"
)

// TestWireLabelTableBound decodes more distinct labels than the label table
// holds, from several goroutines at once: every decoded path must equal
// path.Parse of its text, and the table must stop at its cap.
func TestWireLabelTableBound(t *testing.T) {
	const workers, perWorker = 4, 2 * maxWireLabels / 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// One label shared by every worker, one of its own.
				text := fmt.Sprintf("T/bound%d/w%dn%d", i, w, i)
				got, err := parseWirePath(text)
				if err != nil {
					t.Error(err)
					return
				}
				if want := path.MustParse(text); !got.Equal(want) {
					t.Errorf("parseWirePath(%q) = %v, want %v", text, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wireLabels.RLock()
	n := len(wireLabels.m)
	wireLabels.RUnlock()
	if n != maxWireLabels {
		t.Errorf("label table holds %d labels after %d distinct paths, want the cap %d", n, workers*perWorker, maxWireLabels)
	}
}

// TestWirePathDecodeCostFlat checks that decoding a path never seen before
// costs the same number of bytes however many paths were decoded earlier.
func TestWirePathDecodeCostFlat(t *testing.T) {
	next := 0
	bytesPerPath := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := parseWirePath(fmt.Sprintf("S/flat%d/y", next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	bytesPerPath(1000)
	early := bytesPerPath(500)
	bytesPerPath(4500)
	late := bytesPerPath(500)
	if late > 2*early {
		t.Errorf("a new path costs %.0f B after %d paths but %.0f B after 1000", late, next-500, early)
	}
	t.Logf("bytes per new path: %.0f after 1000 paths, %.0f after %d", early, late, next-500)
}
