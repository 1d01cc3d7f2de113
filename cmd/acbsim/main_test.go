package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// TestMain lets a test run acbsim's main in a child process: with
// ACBSIM_ARGS set, the test binary is acbsim with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ACBSIM_ARGS"); ok {
		os.Args = append([]string{"acbsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acbsim runs acbsim with args and returns its metric/value CSV rows.
func acbsim(t *testing.T, args string) map[string]string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ACBSIM_ARGS="+args+" -format csv")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("acbsim %s: %v", args, err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if k, v, ok := strings.Cut(line, ","); ok {
			rows[k] = v
		}
	}
	return rows
}

// TestDMPProfilesTrainingInput: acbsim's DMP run must be the run a sweep
// simulates (experiments.SchemeFor on the default core), whose compiler
// pass profiles the workload's training input rather than the evaluated
// one. On lbm the two inputs give different candidate sets: the
// evaluation input's profile has no candidates, so a run that profiled
// it would report no predications.
func TestDMPProfilesTrainingInput(t *testing.T) {
	const budget = 200_000
	w, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	newPred, newScheme, err := experiments.SchemeFor(experiments.SchemeDMP, "tage", &w)
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	want, err := ooo.NewWithMemory(config.Skylake(), p, newPred(), newScheme(), m).Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	got := acbsim(t, "-workload lbm -scheme dmp -budget "+strconv.Itoa(budget))
	for metric, v := range map[string]int64{"cycles": want.Cycles, "predications": want.Predications} {
		if got[metric] != strconv.FormatInt(v, 10) {
			t.Errorf("acbsim %s = %q, experiments run %d", metric, got[metric], v)
		}
	}
	if want.Predications == 0 {
		t.Error("the experiments run predicated nothing on lbm; the test no longer tells the two profiles apart")
	}
}
