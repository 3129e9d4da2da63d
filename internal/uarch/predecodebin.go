package uarch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"bsisa/internal/backend"
	"bsisa/internal/isa"
)

// Predecoded-op-table codec: the payload of the binary trace format's
// optional aux section (emu/tracebin.go). Serializing the flattened tables
// lets a persistent trace store hand a restarted daemon both the committed
// stream and the sweep engines' predecode in one read, skipping the flatten
// as well as the recording. The blob is framed by the trace file's checksum,
// so this codec only needs structural validation: the decoded tables must
// belong to the supplied program, and any mismatch (or truncation) fails
// with ErrBadPredecode rather than yielding tables that disagree with a
// fresh Predecode.
//
// Layout: version u8 · issue width, block count (uvarint) · per block a
// presence byte and, when present, addr/size/op count/laneOp count (uvarint)
// followed by the raw 8-byte laneOps. fetchCycles is derived from the op
// count and issue width on decode, exactly as flattenSweepProgram derives it.

// ErrBadPredecode is wrapped by every DecodePredecoded failure.
var ErrBadPredecode = errors.New("uarch: bad predecode encoding")

// Version 3: macro-op pairs are fused into single laneOps, so each block
// carries its laneOp count beside its architectural op count. Older blobs
// fail decode and the service reflattens them.
const predecodeVersion = 3

// EncodeBytes serializes the predecoded tables.
func (p *Predecoded) EncodeBytes() []byte {
	// Size the buffer exactly: the blob is written straight into a store
	// file, so any slack is pure allocation.
	size := 1 + uvarintLen(uint64(p.issueWidth)) + uvarintLen(uint64(len(p.lp)))
	for i, b := range p.prog.Blocks {
		size++
		if b != nil {
			n := len(p.lp[i].ops)
			size += uvarintLen(uint64(b.Addr)) + uvarintLen(uint64(b.Size)) +
				uvarintLen(uint64(len(b.Ops))) + uvarintLen(uint64(n)) + 8*n
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, predecodeVersion)
	buf = binary.AppendUvarint(buf, uint64(p.issueWidth))
	buf = binary.AppendUvarint(buf, uint64(len(p.lp)))
	for i, b := range p.prog.Blocks {
		if b == nil {
			buf = append(buf, 0)
			continue
		}
		lb := &p.lp[i]
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(b.Addr))
		buf = binary.AppendUvarint(buf, uint64(b.Size))
		buf = binary.AppendUvarint(buf, uint64(lb.numOps))
		buf = binary.AppendUvarint(buf, uint64(len(lb.ops)))
		for _, op := range lb.ops {
			// The packed word's little-endian bytes are exactly the wire
			// order: r0, r1, r2, w1, w2, flags, lat, 0.
			buf = binary.LittleEndian.AppendUint64(buf, uint64(op))
		}
	}
	return buf
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// DecodePredecoded reconstructs predecoded tables for prog from one encoded
// blob. The block structure is validated against prog — block count,
// presence, layout address/size, and op count must all match — so a blob
// written for a different program (or a stale layout) decodes to an error,
// and each block's laneOp count must match the backend's fusion of it.
// The returned tables are exactly what Predecode(prog, issueWidth) builds.
func DecodePredecoded(data []byte, prog *isa.Program) (*Predecoded, error) {
	if prog == nil {
		return nil, fmt.Errorf("%w: nil program", ErrBadPredecode)
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: empty blob", ErrBadPredecode)
	}
	if data[0] != predecodeVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadPredecode, data[0], predecodeVersion)
	}
	pos := 1
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadPredecode, pos)
		}
		pos += n
		return v, nil
	}
	iw, err := uvarint()
	if err != nil {
		return nil, err
	}
	if iw == 0 || iw > 1024 {
		return nil, fmt.Errorf("%w: issue width %d", ErrBadPredecode, iw)
	}
	issueWidth := int(iw)
	fuse := backend.PolicyFor(prog.Kind).FuseMacroOps
	numBlocks, err := uvarint()
	if err != nil {
		return nil, err
	}
	if numBlocks != uint64(len(prog.Blocks)) {
		return nil, fmt.Errorf("%w: tables cover %d blocks, program has %d", ErrBadPredecode, numBlocks, len(prog.Blocks))
	}
	lp := make([]laneBlock, len(prog.Blocks))
	for id := range lp {
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: truncated at block %d", ErrBadPredecode, id)
		}
		present := data[pos]
		pos++
		b := prog.Blocks[id]
		if present == 0 {
			if b != nil {
				return nil, fmt.Errorf("%w: B%d absent from the tables but present in the program", ErrBadPredecode, id)
			}
			continue
		}
		if present != 1 {
			return nil, fmt.Errorf("%w: B%d presence byte %d", ErrBadPredecode, id, present)
		}
		if b == nil {
			return nil, fmt.Errorf("%w: B%d present in the tables but absent from the program", ErrBadPredecode, id)
		}
		addr, err := uvarint()
		if err != nil {
			return nil, err
		}
		size, err := uvarint()
		if err != nil {
			return nil, err
		}
		nOps, err := uvarint()
		if err != nil {
			return nil, err
		}
		nLane, err := uvarint()
		if err != nil {
			return nil, err
		}
		if addr != uint64(b.Addr) || size != uint64(b.Size) || nOps != uint64(len(b.Ops)) {
			return nil, fmt.Errorf("%w: B%d is %d ops at %d+%d in the tables, %d ops at %d+%d in the program",
				ErrBadPredecode, id, nOps, addr, size, len(b.Ops), b.Addr, b.Size)
		}
		wantLane := len(b.Ops)
		if fuse {
			wantLane -= len(fusePairs(b.Ops))
		}
		if nLane != uint64(wantLane) {
			return nil, fmt.Errorf("%w: B%d has %d laneOps, fusion of the program gives %d", ErrBadPredecode, id, nLane, wantLane)
		}
		lb := &lp[id]
		lb.numOps = int32(nOps)
		lb.fetchCycles = fetchCyclesOf(int(nOps), issueWidth)
		if pos+wantLane*8 > len(data) {
			return nil, fmt.Errorf("%w: truncated op table for B%d", ErrBadPredecode, id)
		}
		lb.ops = make([]laneOp, wantLane)
		for j := range lb.ops {
			v := binary.LittleEndian.Uint64(data[pos:])
			pos += 8
			v &= 1<<56 - 1 // byte 7 is padding
			r0, r1, r2 := uint8(v), uint8(v>>8), uint8(v>>16)
			w1, w2 := uint8(v>>24), uint8(v>>32)
			if r0 >= isa.NumRegs || r1 >= isa.NumRegs || r2 >= isa.NumRegs {
				return nil, fmt.Errorf("%w: B%d op %d reads register beyond the file", ErrBadPredecode, id, j)
			}
			if w1 == uint8(isa.RegZero) || w1 > laneRegSink ||
				w2 == uint8(isa.RegZero) || w2 > laneRegSink {
				return nil, fmt.Errorf("%w: B%d op %d writes register beyond the file", ErrBadPredecode, id, j)
			}
			lb.ops[j] = laneOp(v)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPredecode, len(data)-pos)
	}
	return &Predecoded{prog: prog, issueWidth: issueWidth, lp: lp}, nil
}
