package experiments

import (
	"reflect"
	"sync"
	"testing"

	"acb/internal/workload"
)

// TestParallelSweepMatchesSerial: a parallel sweep (Jobs: 8) must produce
// results — and rendered tables, sorting included — identical to the
// serial run. The schemes include DMP so the single-flight profile cache
// is on the hot path.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := smallOpts(t, "lammps", "omnetpp", "soplex")
	opts.Budget = 60_000

	serial := opts
	serial.Jobs = 1
	parallel := opts
	parallel.Jobs = 8

	rs := sweep(serial, SchemeBaseline, SchemeACB, SchemeDMP)
	rp := sweep(parallel, SchemeBaseline, SchemeACB, SchemeDMP)
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", rs, rp)
	}

	// Byte-identical figure output (Figure7 also exercises SortByColumn).
	ts := Figure7(serial).String()
	tp := Figure7(parallel).String()
	if ts != tp {
		t.Fatalf("Figure7 output differs between -jobs 1 and -jobs 8:\nserial:\n%s\nparallel:\n%s", ts, tp)
	}
}

// TestProfileCacheSingleFlight hammers the cache from many goroutines
// (run under -race in CI): each workload must be profiled exactly once,
// and every caller must observe the same candidate set.
func TestProfileCacheSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs")
	}
	names := []string{"omnetpp", "xalancbmk"}
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}

	cache := newProfileCache()
	var wg sync.WaitGroup
	got := make([][]int, len(ws)) // candidate counts observed per workload
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cache.get(&ws[i])
				mu.Lock()
				got[i] = append(got[i], len(c))
				mu.Unlock()
			}(i)
		}
	}
	wg.Wait()

	if runs := cache.runs.Load(); runs != int64(len(ws)) {
		t.Fatalf("dmp.Profile ran %d times for %d workloads, want exactly one per workload", runs, len(ws))
	}
	for i, counts := range got {
		for _, n := range counts {
			if n != counts[0] {
				t.Fatalf("workload %s: callers observed different candidate sets: %v", ws[i].Name, counts)
			}
		}
	}
}
