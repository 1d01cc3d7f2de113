package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"acb/internal/config"
	"acb/internal/experiments"
	"acb/internal/ooo"
	"acb/internal/workload"
)

// TestMain lets a test run acbtrace's main in a child process: with
// ACBTRACE_ARGS set, the test binary is acbtrace with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ACBTRACE_ARGS"); ok {
		os.Args = append([]string{"acbtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acbtrace runs acbtrace with args and returns its standard error.
func acbtrace(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ACBTRACE_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("acbtrace %s: %v\n%s", args, err, stderr.String())
	}
	return stderr.String()
}

// TestChromeTrace: trace mode's Chrome export holds events, only complete
// ("X") and instant ("i") phases, and at least one dual-fetch span.
func TestChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chrome-trace.json")
	acbtrace(t, "-workload gcc -mode trace -format chrome -budget 60000 -o "+path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	spans := 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("no dual-fetch spans")
	}
}

var cpiCycles = regexp.MustCompile(`cpi stack: cycle attribution over (\d+) cycles`)

// TestCPIStackCoversBareRun: the CPI stack trace mode prints covers
// exactly the cycles of a bare run of the same workload, scheme and
// budget (experiments.SchemeFor on the default core). milc spends most of
// its cycles in quiescent miss stalls, which the observed run skips and
// the CPI stack replays.
func TestCPIStackCoversBareRun(t *testing.T) {
	const budget = 100_000
	w, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	newPred, newScheme, err := experiments.SchemeFor(experiments.SchemeACB, "tage", &w)
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	want, err := ooo.NewWithMemory(config.Skylake(), p, newPred(), newScheme(), m).Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	stderr := acbtrace(t, fmt.Sprintf("-workload milc -mode trace -scheme acb -format text -budget %d -o %s",
		budget, filepath.Join(t.TempDir(), "events.txt")))
	match := cpiCycles.FindStringSubmatch(stderr)
	if match == nil {
		t.Fatalf("no CPI stack on stderr:\n%s", stderr)
	}
	if got := match[1]; got != strconv.FormatInt(want.Cycles, 10) {
		t.Errorf("CPI stack covers %s cycles, bare run took %d", got, want.Cycles)
	}
}
