package trace

import (
	"fmt"
	"io"
	"os"

	"acb/internal/isa"
	"acb/internal/prog"
)

// Record runs the program to halt (or maxSteps) on the functional emulator
// and streams a complete, self-contained trace into w: provenance header,
// the program itself, the initial memory image, the static merge-point
// table from the post-dominator analysis, and every conditional-branch
// outcome. The caller's memory image is not mutated (the run uses a
// clone), and the output bytes are a pure function of (p, mem, maxSteps,
// h) — no timestamps, no randomness — so recording under any -jobs count
// or on any host yields identical files.
func Record(w io.Writer, p []isa.Instruction, mem *isa.Memory, maxSteps int64, h Header) (steps int64, halted bool, err error) {
	tw, err := NewWriter(w, h)
	if err != nil {
		return 0, false, err
	}
	if err := tw.PutProgram(p); err != nil {
		return 0, false, err
	}
	if err := tw.PutMemory(mem); err != nil {
		return 0, false, err
	}
	if err := tw.PutMergePoints(prog.NewCFG(p).AllReconvergences()); err != nil {
		return 0, false, err
	}
	st := isa.NewArchState(mem.Clone())
	steps, halted = st.RunFeed(p, maxSteps, func(pc int, taken bool) {
		tw.Branch(pc, taken, p[pc].Target) // sticky error, checked at Close
	}, nil)
	if err := tw.Close(steps, halted); err != nil {
		return steps, halted, err
	}
	return steps, halted, nil
}

// RecordFile records to a file at path, written atomically (temp file +
// rename) so a crashed recording never leaves a truncated trace behind.
func RecordFile(path string, p []isa.Instruction, mem *isa.Memory, maxSteps int64, h Header) (steps int64, halted bool, err error) {
	f, err := os.CreateTemp(dirOf(path), ".trace-*")
	if err != nil {
		return 0, false, err
	}
	steps, halted, err = Record(f, p, mem, maxSteps, h)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return steps, halted, err
	}
	// CreateTemp opens 0600; committed traces are ordinary artifacts.
	if err := os.Chmod(f.Name(), 0o644); err != nil {
		os.Remove(f.Name())
		return steps, halted, err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return steps, halted, err
	}
	return steps, halted, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Verify re-runs the functional emulator over the trace's embedded program
// and memory image and checks the recorded branch stream, step count and
// halt flag against it — the recorder's integrity check, and the proof a
// replayed workload reproduces the recorded execution exactly.
func (t *Trace) Verify() error {
	if t.Prog == nil {
		return fmt.Errorf("trace: verify: no embedded program")
	}
	if t.Header.ISAHash != isa.Fingerprint() {
		return fmt.Errorf("trace: verify: ISA fingerprint %#x does not match this build's %#x",
			t.Header.ISAHash, isa.Fingerprint())
	}
	var verr error
	i := 0
	st := isa.NewArchState(t.Memory())
	steps, halted := st.RunFeed(t.Prog, t.Steps, func(pc int, taken bool) {
		if verr != nil {
			return
		}
		if i >= len(t.Branches) {
			verr = fmt.Errorf("trace: verify: emulator executed more branches than the %d recorded", len(t.Branches))
			return
		}
		b := t.Branches[i]
		if b.PC != pc || b.Taken != taken {
			verr = fmt.Errorf("trace: verify: branch %d is pc=%d taken=%v, recorded pc=%d taken=%v",
				i, pc, taken, b.PC, b.Taken)
			return
		}
		i++
	}, nil)
	if verr != nil {
		return verr
	}
	if i != len(t.Branches) {
		return fmt.Errorf("trace: verify: emulator executed %d branches, trace records %d", i, len(t.Branches))
	}
	if steps != t.Steps || halted != t.Halted {
		return fmt.Errorf("trace: verify: emulator ran %d steps (halted=%v), trace says %d (halted=%v)",
			steps, halted, t.Steps, t.Halted)
	}
	return nil
}
