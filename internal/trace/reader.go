package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"acb/internal/isa"
)

// memWord is one non-zero word of the initial memory image.
type memWord struct {
	addr, val int64
}

// decoder holds the state that validating a trace's blocks needs: the
// input, the embedded program that branch records are checked against,
// and the running branch-record delta base and count.
type decoder struct {
	r      *bufio.Reader
	prog   []isa.Instruction
	prevPC int
	total  int64
}

// readBlock reads one CRC-framed block.
func (tr *decoder) readBlock() (byte, []byte, error) {
	typ, err := tr.r.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("trace: read block type: %w", err)
	}
	plen, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return 0, nil, fmt.Errorf("trace: read block length: %w", err)
	}
	payload, err := readPayload(tr.r, plen)
	if err != nil {
		return 0, nil, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("trace: read block crc: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("trace: block type %d crc mismatch: %#x != %#x", typ, got, want)
	}
	return typ, payload, nil
}

func decodeMemory(payload []byte) ([]memWord, error) {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Every word costs at least two payload bytes (delta + value varints).
	if n > uint64(c.remaining())/2 {
		return nil, fmt.Errorf("trace: memory word count %d exceeds payload", n)
	}
	words := make([]memWord, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, err := c.varint()
		if err != nil {
			return nil, err
		}
		v, err := c.varint()
		if err != nil {
			return nil, err
		}
		addr := prev + d
		if i > 0 && addr <= prev {
			return nil, fmt.Errorf("trace: memory addresses not strictly ascending at %#x", addr)
		}
		words = append(words, memWord{addr: addr, val: v})
		prev = addr
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return words, nil
}

func decodeMerges(payload []byte, p []isa.Instruction) (map[int]int, error) {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.remaining())/2 {
		return nil, fmt.Errorf("trace: merge-point count %d exceeds payload", n)
	}
	mp := make(map[int]int, n)
	prev := 0
	for i := uint64(0); i < n; i++ {
		d, err := c.varint()
		if err != nil {
			return nil, err
		}
		rd, err := c.varint()
		if err != nil {
			return nil, err
		}
		pc := prev + int(d)
		if i > 0 && pc <= prev {
			return nil, fmt.Errorf("trace: merge-point PCs not strictly ascending at %d", pc)
		}
		recon := pc + int(rd)
		if p != nil && (pc < 0 || pc >= len(p) || recon < 0 || recon >= len(p)) {
			return nil, fmt.Errorf("trace: merge point %d -> %d outside program [0,%d)", pc, recon, len(p))
		}
		mp[pc] = recon
		prev = pc
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return mp, nil
}

// branchCount returns the record count a branch block declares and a
// cursor positioned at its first record.
func branchCount(payload []byte) (*payloadCursor, int, error) {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Every record costs at least one payload byte.
	if n > uint64(c.remaining()) {
		return nil, 0, fmt.Errorf("trace: branch record count %d exceeds payload", n)
	}
	return c, int(n), nil
}

// decodeBranches appends the records of one branch block to dst, growing
// it at most once.
func (tr *decoder) decodeBranches(dst []Branch, payload []byte) ([]Branch, error) {
	c, n, err := branchCount(payload)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		key, err := c.uvarint()
		if err != nil {
			return dst, err
		}
		taken := key&1 != 0
		pc := tr.prevPC + int(unzigzag(key>>1))
		target := pc + 1
		if taken {
			td, err := c.varint()
			if err != nil {
				return dst, err
			}
			target = pc + 1 + int(td)
		}
		if tr.prog != nil {
			if pc < 0 || pc >= len(tr.prog) {
				return dst, fmt.Errorf("trace: branch record PC %d outside program [0,%d)", pc, len(tr.prog))
			}
			in := &tr.prog[pc]
			if !in.IsBranch() {
				return dst, fmt.Errorf("trace: branch record at PC %d, but instruction is %s", pc, in)
			}
			if taken && target != in.Target {
				return dst, fmt.Errorf("trace: branch record at PC %d has target %d, program says %d", pc, target, in.Target)
			}
		}
		dst = append(dst, Branch{PC: pc, Taken: taken, Target: target})
		tr.prevPC = pc
	}
	tr.total += int64(n)
	return dst, c.done()
}

// finish checks the end block against the records decoded and the clean
// end of the input, and stores the run's totals in t.
func (tr *decoder) finish(payload []byte, t *Trace) error {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	steps, err := c.uvarint()
	if err != nil {
		return err
	}
	hb, err := c.byte()
	if err != nil {
		return err
	}
	if hb > 1 {
		return fmt.Errorf("trace: end block halt flag %d", hb)
	}
	if err := c.done(); err != nil {
		return err
	}
	if int64(n) != tr.total {
		return fmt.Errorf("trace: end block says %d records, decoded %d", n, tr.total)
	}
	if _, err := tr.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: trailing data after end block")
	}
	t.Steps = int64(steps)
	t.Halted = hb == 1
	return nil
}

func buildMemory(words []memWord) *isa.Memory {
	m := isa.NewMemory()
	for _, w := range words {
		m.Store(w.addr, w.val)
	}
	return m
}

// Trace is a fully decoded trace file.
type Trace struct {
	Header   Header
	Prog     []isa.Instruction
	Merges   map[int]int
	Branches []Branch
	Steps    int64
	Halted   bool

	mem []memWord
}

// Memory materializes a fresh copy of the initial memory image.
func (t *Trace) Memory() *isa.Memory { return buildMemory(t.mem) }

// Decode reads and validates an entire trace file: the preamble, the meta
// block, the section blocks, the branch blocks and the end block, followed
// by a clean EOF. Any truncation, framing error, CRC mismatch or
// implausible count is an error; Decode never panics on hostile input and
// never allocates more than the input's actual size plus a fixed overhead.
// Branches is sized exactly: the branch blocks are read raw, their
// declared record counts summed, and then decoded into one allocation.
func Decode(r io.Reader) (*Trace, error) {
	tr := &decoder{r: bufio.NewReader(r)}
	pre := make([]byte, 6)
	if _, err := io.ReadFull(tr.r, pre); err != nil {
		return nil, fmt.Errorf("trace: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", pre[:4])
	}
	if v := binary.LittleEndian.Uint16(pre[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", v, traceVersion)
	}
	typ, payload, err := tr.readBlock()
	if err != nil {
		return nil, err
	}
	if typ != blockMeta {
		return nil, fmt.Errorf("trace: first block type %d, want meta", typ)
	}
	t := &Trace{}
	if t.Header, err = decodeMeta(payload); err != nil {
		return nil, err
	}
	// Section blocks come first, then branch blocks, then the end block.
	var blocks [][]byte
	n := 0
	for {
		typ, payload, err := tr.readBlock()
		if err != nil {
			return nil, err
		}
		if len(blocks) > 0 && typ != blockBranch && typ != blockEnd {
			return nil, fmt.Errorf("trace: block type %d after branch records", typ)
		}
		switch typ {
		case blockProg:
			if t.Prog != nil {
				return nil, fmt.Errorf("trace: duplicate program block")
			}
			br := bytes.NewReader(payload)
			if t.Prog, err = isa.DecodeProgram(br); err != nil {
				return nil, err
			}
			if br.Len() != 0 {
				return nil, fmt.Errorf("trace: %d trailing bytes in program block", br.Len())
			}
			tr.prog = t.Prog
		case blockMemory:
			if t.mem != nil {
				return nil, fmt.Errorf("trace: duplicate memory block")
			}
			if t.mem, err = decodeMemory(payload); err != nil {
				return nil, err
			}
		case blockMerge:
			if t.Merges != nil {
				return nil, fmt.Errorf("trace: duplicate merge-point block")
			}
			if t.Merges, err = decodeMerges(payload, t.Prog); err != nil {
				return nil, err
			}
		case blockBranch:
			_, k, err := branchCount(payload)
			if err != nil {
				return nil, err
			}
			n += k
			blocks = append(blocks, payload)
		case blockEnd:
			t.Branches = slices.Grow(t.Branches, n)
			for _, p := range blocks {
				if t.Branches, err = tr.decodeBranches(t.Branches, p); err != nil {
					return nil, err
				}
			}
			if err := tr.finish(payload, t); err != nil {
				return nil, err
			}
			return t, nil
		default:
			return nil, fmt.Errorf("trace: unknown block type %d", typ)
		}
	}
}

// DecodeFile decodes the trace at path.
func DecodeFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
