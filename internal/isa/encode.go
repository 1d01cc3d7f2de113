package isa

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Binary program format: a fixed header followed by one 16-byte record per
// instruction. The format lets tools (cmd/acbtrace, external analyzers)
// exchange programs without rebuilding workloads.
//
//	magic   [4]byte  "ACBP"
//	version uint16   (1)
//	count   uint32
//	records: op u8 | cond u8 | rd u8 | rs1 u8 | rs2 u8 | pad u8
//	         target i16 (relative to the instruction) | imm i64
var (
	progMagic   = [4]byte{'A', 'C', 'B', 'P'}
	progVersion = uint16(1)
)

const recordBytes = 16

// EncodeProgram writes the program in the binary format.
func EncodeProgram(w io.Writer, p []Instruction) error {
	hdr := make([]byte, 10)
	copy(hdr, progMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], progVersion)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(p)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("isa: encode header: %w", err)
	}
	rec := make([]byte, recordBytes)
	for pc := range p {
		in := &p[pc]
		rel := 0
		if in.IsControl() {
			rel = in.Target - pc
			if rel > 32767 || rel < -32768 {
				return fmt.Errorf("isa: instruction %d: target offset %d exceeds 16 bits", pc, rel)
			}
		}
		rec[0] = byte(in.Op)
		rec[1] = byte(in.Cond)
		rec[2] = byte(in.Rd)
		rec[3] = byte(in.Rs1)
		rec[4] = byte(in.Rs2)
		rec[5] = 0
		binary.LittleEndian.PutUint16(rec[6:], uint16(int16(rel)))
		binary.LittleEndian.PutUint64(rec[8:], uint64(in.Imm))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("isa: encode instruction %d: %w", pc, err)
		}
	}
	return nil
}

// DecodeProgram parses a program written by EncodeProgram, validating
// opcodes, conditions, registers and control-flow targets.
func DecodeProgram(r io.Reader) ([]Instruction, error) {
	hdr := make([]byte, 10)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("isa: decode header: %w", err)
	}
	if [4]byte(hdr[:4]) != progMagic {
		return nil, fmt.Errorf("isa: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != progVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[6:])
	if count > 1<<24 {
		return nil, fmt.Errorf("isa: implausible instruction count %d", count)
	}
	p := make([]Instruction, count)
	rec := make([]byte, recordBytes)
	for pc := range p {
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, fmt.Errorf("isa: decode instruction %d: %w", pc, err)
		}
		in := &p[pc]
		in.Op = Op(rec[0])
		if in.Op >= numOps {
			return nil, fmt.Errorf("isa: instruction %d: invalid opcode %d", pc, rec[0])
		}
		in.Cond = Cond(rec[1])
		if in.Cond >= numConds {
			return nil, fmt.Errorf("isa: instruction %d: invalid condition %d", pc, rec[1])
		}
		in.Rd, in.Rs1, in.Rs2 = Reg(rec[2]), Reg(rec[3]), Reg(rec[4])
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return nil, fmt.Errorf("isa: instruction %d: invalid register", pc)
		}
		rel := int(int16(binary.LittleEndian.Uint16(rec[6:])))
		in.Imm = int64(binary.LittleEndian.Uint64(rec[8:]))
		if in.IsControl() {
			in.Target = pc + rel
			if in.Target < 0 || in.Target >= int(count) {
				return nil, fmt.Errorf("isa: instruction %d: target %d out of program", pc, in.Target)
			}
		}
	}
	return p, nil
}

// Fingerprint returns a stable 64-bit hash of the ISA definition: register
// count, opcode and condition vocabularies, per-op operand metadata and
// execution latencies. Trace files embed it so a trace recorded under one
// ISA revision is rejected — instead of silently misdecoded — by another.
func Fingerprint() uint64 {
	h := fnv.New64a()
	u8 := func(b byte) { h.Write([]byte{b}) }
	str := func(s string) { h.Write([]byte(s)); u8(0) }

	str("acb-isa")
	u8(NumRegs)
	u8(byte(numOps))
	u8(byte(numConds))
	for op := Op(0); op < numOps; op++ {
		str(op.String())
		u8(btoi(opHasDest[op]))
		u8(opNSrc[op])
		in := Instruction{Op: op}
		u8(byte(in.ExecLatency()))
	}
	for c := Cond(0); c < numConds; c++ {
		str(c.String())
		u8(btoi(c.UsesRs2()))
	}
	return h.Sum64()
}

func btoi(b bool) byte {
	if b {
		return 1
	}
	return 0
}
