package trace

import (
	"bytes"
	"reflect"
	"testing"

	"acb/internal/isa"
	"acb/internal/prog"
)

// testProgram builds a small loop with a data-dependent hammock (one
// conditional branch per iteration plus the loop back-edge) and a store in
// the taken body, so traces exercise PC deltas in both directions.
func testProgram(t testing.TB, iters int64, seed uint64) ([]isa.Instruction, *isa.Memory) {
	t.Helper()
	b := prog.NewBuilder()
	b.MovI(isa.R0, 0)
	b.MovI(isa.R1, iters)
	b.MovI(isa.R7, 0)
	b.Label("loop")
	b.AndI(isa.R4, isa.R0, 63)
	b.MulI(isa.R4, isa.R4, 8)
	b.MovI(isa.R3, 0x1000)
	b.Add(isa.R3, isa.R3, isa.R4)
	b.Load(isa.R2, isa.R3, 0)
	b.AndI(isa.R2, isa.R2, 1)
	b.Br(isa.EQZ, isa.R2, 0, "skip")
	b.AddI(isa.R7, isa.R7, 3)
	b.Store(isa.R3, 0x800, isa.R7)
	b.Label("skip")
	b.AddI(isa.R0, isa.R0, 1)
	b.Sub(isa.R4, isa.R0, isa.R1)
	b.Brnz(isa.R4, "loop")
	b.Halt()
	insts, err := b.Build()
	if err != nil {
		t.Fatalf("build test program: %v", err)
	}
	m := isa.NewMemory()
	x := seed | 1
	for i := int64(0); i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Store(0x1000+i*8, int64(x&0xFFFF))
	}
	return insts, m
}

func recordBytes(t testing.TB, iters int64, seed uint64) ([]byte, []isa.Instruction, *isa.Memory) {
	t.Helper()
	insts, mem := testProgram(t, iters, seed)
	var buf bytes.Buffer
	steps, halted, err := Record(&buf, insts, mem, 1<<20, Header{Source: "test", Kind: "unit", Seed: seed})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if !halted || steps == 0 {
		t.Fatalf("Record: steps=%d halted=%v", steps, halted)
	}
	return buf.Bytes(), insts, mem
}

func TestRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF, 1 << 40} {
		data, insts, mem := recordBytes(t, 100, seed)
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		if tr.Header.Source != "test" || tr.Header.Kind != "unit" || tr.Header.Seed != seed {
			t.Fatalf("seed %d: header %+v", seed, tr.Header)
		}
		if tr.Header.ISAHash != isa.Fingerprint() {
			t.Fatalf("seed %d: ISA hash %#x, want %#x", seed, tr.Header.ISAHash, isa.Fingerprint())
		}
		if !reflect.DeepEqual(tr.Prog, insts) {
			t.Fatalf("seed %d: program does not round-trip", seed)
		}
		if !tr.Memory().Equal(mem) {
			t.Fatalf("seed %d: memory image does not round-trip", seed)
		}
		want := prog.NewCFG(insts).AllReconvergences()
		if !reflect.DeepEqual(tr.Merges, want) {
			t.Fatalf("seed %d: merge points %v, want %v", seed, tr.Merges, want)
		}
		if !tr.Halted || tr.Steps == 0 || len(tr.Branches) == 0 {
			t.Fatalf("seed %d: steps=%d halted=%v branches=%d", seed, tr.Steps, tr.Halted, len(tr.Branches))
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("seed %d: Verify: %v", seed, err)
		}
	}
}

// TestBranchStreamMatchesEmulator cross-checks every decoded record against
// an independent functional run (not via Verify, so a bug shared by Record
// and Verify would still be caught).
func TestBranchStreamMatchesEmulator(t *testing.T) {
	data, insts, mem := recordBytes(t, 200, 7)
	tr, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	st := isa.NewArchState(mem.Clone())
	var got []Branch
	for n := 0; n < 1<<20; n++ {
		res := st.Step(insts)
		if res.Halted {
			break
		}
		if res.Inst.Op == isa.Br {
			b := Branch{PC: res.PC, Taken: res.Taken, Target: res.PC + 1}
			if res.Taken {
				b.Target = res.Inst.Target
			}
			got = append(got, b)
		}
	}
	if !reflect.DeepEqual(got, tr.Branches) {
		t.Fatalf("decoded branch stream differs from emulator (got %d records, want %d)", len(tr.Branches), len(got))
	}
}

// TestDeterministicBytes: recording the same input twice yields identical
// files — the property the cross-jobs determinism test in experiments
// scales out.
func TestDeterministicBytes(t *testing.T) {
	a, _, _ := recordBytes(t, 150, 42)
	b, _, _ := recordBytes(t, 150, 42)
	if !bytes.Equal(a, b) {
		t.Fatalf("recording is not byte-deterministic: %d vs %d bytes", len(a), len(b))
	}
}

// TestMultiBlockDecode: a trace longer than one branch block decodes to
// the branch stream its recording run produced, with that run's step count
// and halt flag, across the block boundaries.
func TestMultiBlockDecode(t *testing.T) {
	data, insts, mem := recordBytes(t, branchBlockRecords+57, 5)
	var want []Branch
	steps, halted := isa.NewArchState(mem.Clone()).RunFeed(insts, 1<<20, func(pc int, taken bool) {
		b := Branch{PC: pc, Taken: taken, Target: pc + 1}
		if taken {
			b.Target = insts[pc].Target
		}
		want = append(want, b)
	}, nil)
	if len(want) <= 2*branchBlockRecords {
		t.Fatalf("test needs >2 branch blocks, got %d records", len(want))
	}
	tr, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr.Branches, want) {
		t.Fatalf("decoded %d records, recording run produced %d (or they differ)", len(tr.Branches), len(want))
	}
	if tr.Steps != steps || tr.Halted != halted {
		t.Fatalf("Decode: steps=%d halted=%v, recording run: steps=%d halted=%v", tr.Steps, tr.Halted, steps, halted)
	}
}

// TestTruncation: every strict prefix of a valid trace must decode to an
// error — never a panic, never a silent success.
func TestTruncation(t *testing.T) {
	data, _, _ := recordBytes(t, 60, 9)
	for n := 0; n < len(data); n++ {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestBitflip: flipping any single bit must either produce a decode error
// or (vacuously) decode to the identical trace — corruption is never
// silently accepted with different contents.
func TestBitflip(t *testing.T) {
	data, _, _ := recordBytes(t, 40, 11)
	orig, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[i] ^= 1 << bit
			tr, err := Decode(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(tr, orig) {
				t.Fatalf("flip byte %d bit %d: decoded without error to different contents", i, bit)
			}
		}
	}
}

// TestVerifyRejectsForeignISAHash: a trace stamped with a different ISA
// fingerprint must fail verification even if it decodes.
func TestVerifyRejectsForeignISAHash(t *testing.T) {
	insts, mem := testProgram(t, 20, 3)
	var buf bytes.Buffer
	if _, _, err := Record(&buf, insts, mem, 1<<20, Header{ISAHash: 0xBAD, Source: "x", Kind: "unit"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	tr, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := tr.Verify(); err == nil {
		t.Fatalf("Verify accepted a foreign ISA fingerprint")
	}
}

// TestRecordBudgetExhaustion: a recording cut off by maxSteps stores
// halted=false and still verifies (the re-run stops at the same step).
func TestRecordBudgetExhaustion(t *testing.T) {
	insts, mem := testProgram(t, 1000, 13)
	var buf bytes.Buffer
	steps, halted, err := Record(&buf, insts, mem, 100, Header{Source: "x", Kind: "unit"})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if halted || steps != 100 {
		t.Fatalf("steps=%d halted=%v, want 100/false", steps, halted)
	}
	tr, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if tr.Halted || tr.Steps != 100 {
		t.Fatalf("decoded steps=%d halted=%v", tr.Steps, tr.Halted)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestWriterMisuse: section blocks after branch records, duplicate
// sections, and writes after Close are rejected.
func TestWriterMisuse(t *testing.T) {
	insts, mem := testProgram(t, 10, 1)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Header{Source: "x"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := tw.PutProgram(insts); err != nil {
		t.Fatalf("PutProgram: %v", err)
	}
	if err := tw.PutProgram(insts); err == nil {
		t.Fatalf("duplicate PutProgram accepted")
	}
	// The sticky error must not leak into a fresh writer.
	buf.Reset()
	tw, err = NewWriter(&buf, Header{Source: "x"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := tw.Branch(3, true, 7); err != nil {
		t.Fatalf("Branch: %v", err)
	}
	if err := tw.PutMemory(mem); err == nil {
		t.Fatalf("section block after branch records accepted")
	}
	buf.Reset()
	tw, err = NewWriter(&buf, Header{Source: "x"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := tw.Close(0, true); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tw.Close(0, true); err == nil {
		t.Fatalf("double Close accepted")
	}
	if err := tw.Branch(0, false, 0); err == nil {
		t.Fatalf("Branch after Close accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}
