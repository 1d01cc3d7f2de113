package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"table1", "fig6", "census", "sens-n"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed", name)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown experiment")
	}
	if len(Experiments()) != len(Names()) {
		t.Error("Experiments and Names disagree on registry size")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", DefaultOptions()); err == nil {
		t.Fatal("Run accepted an unknown experiment")
	}
}

// TestRunMatchesDirectCall: Run must return exactly the table the
// experiment function produces.
func TestRunMatchesDirectCall(t *testing.T) {
	tab, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.String(), TableI().String(); got != want {
		t.Fatalf("Run(table1) diverged from TableI():\n%s\nvs\n%s", got, want)
	}
}

// TestRunCancelledContext: a cancelled context surfaces as an
// errors.Is-able error, never as a panic or a partially-filled table.
func TestRunCancelledContext(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	opts := smallOpts(t, "lammps", "compression")
	opts.Budget = 100_000_000 // would run for minutes uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	opts.Context = ctx
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	tab, err := Run("fig6", opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tab != nil {
		t.Fatal("cancelled Run returned a table")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s; simulations did not stop mid-run", elapsed)
	}
}

// TestRunDeadlineStopsEverySimulation: the sensitivity sweeps and the
// multiple-reconvergence study build their own cores; a deadline must
// stop those mid-run too, not only the per-workload sweeps.
func TestRunDeadlineStopsEverySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, name := range []string{"sens-n", "multirecon"} {
		opts := DefaultOptions()
		opts.Budget = 100_000_000 // seconds to minutes per simulation
		opts.Jobs = 1
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		opts.Context = ctx
		errc := make(chan error, 1)
		go func() {
			_, err := Run(name, opts)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s: still running 2s after a 200ms deadline", name)
		}
		cancel()
	}
}

// TestRunStatsCountEverySimulation: cycles of every simulation an
// experiment runs reach Options.Stats.
func TestRunStatsCountEverySimulation(t *testing.T) {
	opts := DefaultOptions()
	opts.Budget = 20_000
	opts.Stats = &RunnerStats{}
	if _, err := Run("multirecon", opts); err != nil {
		t.Fatal(err)
	}
	if opts.Stats.Cycles() == 0 {
		t.Fatal("multirecon simulated no cycles into Options.Stats")
	}
}
