package emu

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"

	"bsisa/internal/isa"
)

// BSTR fixed-stride layout (see the format overview in tracebin.go). The
// design constraints, in order:
//
//   - The body columns are bit-for-bit the flat slices Replay walks, so a
//     validated buffer needs no per-event work at all: blocks are i32,
//     succIdx i16, taken one byte per event, mem u32, memCnt u32, all
//     little-endian. Aliasing them is pure pointer/stride bookkeeping.
//   - The body starts at a fixed 4096-byte offset and every column starts on
//     a 64-byte boundary, so a page-aligned mapping (mmap always is) makes
//     every column alignment-safe for its element type.
//   - Every byte is accounted for: the header checks itself, each column
//     carries its own CRC-32C (a flipped bit names the section it hit), the
//     tail carries one over itself, and every padding byte must be zero.
//     Zero padding also keeps the encoding deterministic, so
//     Encode∘Decode∘Encode stays byte-identical.
const (
	v3HeaderLen = 64
	v3BodyOff   = 4096
	v3ColAlign  = 64
	v3NumCols   = 5

	// v3MinTailLen bounds the smallest legal tail: a result-absent uvarint,
	// five column CRCs, and the tail CRC.
	v3MinTailLen = 1 + 4*v3NumCols + traceTrailerLen
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the precondition for aliasing v3 columns in place.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// v3Layout holds the computed byte offsets of one v3 encoding.
type v3Layout struct {
	numEvents, numBlocks, memTotal       int
	blocksOff, succOff, takenOff, memOff int
	memCntOff, tailOff                   int
}

func v3Align(off uint64) uint64 { return (off + v3ColAlign - 1) &^ uint64(v3ColAlign-1) }

// v3LayoutFor computes the column offsets for the given stream shape. The
// sizeCap guards decode-side arithmetic: counts come from the (checksummed
// but untrusted) header, so every offset is computed in uint64 and rejected
// as soon as it exceeds the buffer. Encoding passes a cap high enough to
// never trip.
func v3LayoutFor(numEvents, numBlocks, memTotal, sizeCap uint64) (v3Layout, error) {
	off := uint64(v3BodyOff)
	l := v3Layout{numEvents: int(numEvents), numBlocks: int(numBlocks), memTotal: int(memTotal)}
	for _, col := range []struct {
		dst   *int
		width uint64
		n     uint64
	}{
		{&l.blocksOff, 4, numEvents},
		{&l.succOff, 2, numEvents},
		{&l.takenOff, 1, numEvents},
		{&l.memOff, 4, memTotal},
		{&l.memCntOff, 4, numBlocks},
	} {
		if off > sizeCap || col.n > sizeCap || col.n*col.width > sizeCap-off {
			return v3Layout{}, fmt.Errorf("%w: v3 column sizes exceed the encoding's capacity", ErrBadTrace)
		}
		*col.dst = int(off)
		off = v3Align(off + col.n*col.width)
	}
	// The last column is not padded: the tail begins right after it.
	l.tailOff = l.memCntOff + 4*l.numBlocks
	return l, nil
}

// columns returns the five column byte ranges of data under this layout, in
// encoding order (blocks, succIdx, taken, mem, memCnt).
func (l v3Layout) columns(data []byte) [v3NumCols][]byte {
	return [v3NumCols][]byte{
		data[l.blocksOff : l.blocksOff+4*l.numEvents],
		data[l.succOff : l.succOff+2*l.numEvents],
		data[l.takenOff : l.takenOff+l.numEvents],
		data[l.memOff : l.memOff+4*l.memTotal],
		data[l.memCntOff : l.memCntOff+4*l.numBlocks],
	}
}

// EncodeBytes serializes the trace (and any aux sections) into a fresh
// checksummed buffer in the fixed-stride layout. Section tags must be
// strictly increasing — the canonical form DecodeTrace enforces.
func (t *Trace) EncodeBytes(aux []AuxSection) []byte {
	l, err := v3LayoutFor(uint64(len(t.blocks)), uint64(len(t.memCnt)), uint64(len(t.mem)), 1<<62)
	if err != nil {
		// Unreachable for any trace that fits in memory.
		panic(err)
	}
	auxLen := 0
	for _, s := range aux {
		auxLen += len(s.Data) + 2*binary.MaxVarintLen64
	}
	buf := make([]byte, l.tailOff, l.tailOff+v3MinTailLen+64+auxLen)
	le := binary.LittleEndian

	copy(buf, traceMagic)
	buf[4] = traceVersion
	if len(aux) > 0 {
		buf[5] = flagAux
	}
	le.PutUint64(buf[8:], uint64(t.cfg.MaxOps))
	le.PutUint64(buf[16:], uint64(len(t.blocks)))
	le.PutUint64(buf[24:], uint64(len(t.memCnt)))
	le.PutUint64(buf[32:], uint64(len(t.mem)))
	le.PutUint64(buf[40:], v3BodyOff)
	le.PutUint64(buf[48:], uint64(l.tailOff))
	le.PutUint32(buf[60:], crc32.Checksum(buf[:60], crcTable))

	for i, id := range t.blocks {
		le.PutUint32(buf[l.blocksOff+4*i:], uint32(id))
	}
	for i, s := range t.succIdx {
		le.PutUint16(buf[l.succOff+2*i:], uint16(s))
	}
	for i, tk := range t.taken {
		if tk {
			buf[l.takenOff+i] = 1
		}
	}
	for i, a := range t.mem {
		le.PutUint32(buf[l.memOff+4*i:], a)
	}
	for i, n := range t.memCnt {
		le.PutUint32(buf[l.memCntOff+4*i:], uint32(n))
	}

	buf = appendTraceResult(buf, t.result)
	if len(aux) > 0 {
		buf = appendTraceAux(buf, aux)
	}
	for _, col := range l.columns(buf) {
		buf = le.AppendUint32(buf, crc32.Checksum(col, crcTable))
	}
	return le.AppendUint32(buf, crc32.Checksum(buf[l.tailOff:], crcTable))
}

// DecodeTrace reconstructs a trace recorded from prog out of one encoded
// buffer, returning the aux sections in tag order (nil when absent). The
// decoded trace replays field-for-field identically to the trace EncodeBytes
// was called on. The stream is validated against prog — block IDs, successor
// indices, and static memory-operation counts must all match — so a file
// keyed to the wrong program decodes to an error, never to a wrong answer.
//
// On a little-endian host with an 8-byte-aligned buffer the trace's event
// columns alias data directly (Borrowed reports true; mmap pages always
// qualify), so data must stay immutable and mapped for the trace's
// lifetime. Misaligned buffers and big-endian hosts decode into fresh heap
// slices.
func DecodeTrace(data []byte, prog *isa.Program) (*Trace, []AuxSection, error) {
	le := binary.LittleEndian
	if prog == nil {
		return nil, nil, fmt.Errorf("%w: nil program", ErrBadTrace)
	}
	if len(data) < v3HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadTrace, len(data))
	}
	if string(data[:4]) != traceMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, data[:4])
	}
	if data[4] != traceVersion {
		return nil, nil, fmt.Errorf("%w: format version %d, want %d", ErrBadTrace, data[4], traceVersion)
	}
	if got, want := crc32.Checksum(data[:60], crcTable), le.Uint32(data[60:]); got != want {
		return nil, nil, fmt.Errorf("%w: header checksum %08x, header says %08x", ErrBadTrace, got, want)
	}
	flags := data[5]
	if flags&^byte(flagAux) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#02x", ErrBadTrace, flags)
	}
	maxOps := int64(le.Uint64(data[8:]))
	numEvents := le.Uint64(data[16:])
	numBlocks := le.Uint64(data[24:])
	memTotal := le.Uint64(data[32:])
	if numBlocks != uint64(len(prog.Blocks)) {
		return nil, nil, fmt.Errorf("%w: trace is over %d blocks, program has %d", ErrBadTrace, numBlocks, len(prog.Blocks))
	}
	if bodyOff := le.Uint64(data[40:]); bodyOff != v3BodyOff {
		return nil, nil, fmt.Errorf("%w: non-canonical body offset %d", ErrBadTrace, bodyOff)
	}
	l, err := v3LayoutFor(numEvents, numBlocks, memTotal, uint64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	if tailOff := le.Uint64(data[48:]); tailOff != uint64(l.tailOff) {
		return nil, nil, fmt.Errorf("%w: tail offset %d, layout says %d", ErrBadTrace, tailOff, l.tailOff)
	}
	if len(data) < l.tailOff+v3MinTailLen {
		return nil, nil, fmt.Errorf("%w: %d-byte tail is shorter than the minimum %d", ErrBadTrace, len(data)-l.tailOff, v3MinTailLen)
	}

	// Checksums: the tail CRC covers result, aux, and the column CRC list;
	// each column CRC covers exactly its column's bytes.
	crcOff := len(data) - traceTrailerLen - 4*v3NumCols
	if got, want := crc32.Checksum(data[l.tailOff:len(data)-traceTrailerLen], crcTable), le.Uint32(data[len(data)-traceTrailerLen:]); got != want {
		return nil, nil, fmt.Errorf("%w: tail checksum %08x, trailer says %08x", ErrBadTrace, got, want)
	}
	for i, col := range l.columns(data) {
		if got, want := crc32.Checksum(col, crcTable), le.Uint32(data[crcOff+4*i:]); got != want {
			return nil, nil, fmt.Errorf("%w: column %d checksum %08x, tail says %08x", ErrBadTrace, i, got, want)
		}
	}

	// Padding: every byte between header, columns, and tail must be zero, so
	// no byte of the file escapes both the checksums and this rule.
	for _, gap := range [][2]int{
		{v3HeaderLen, v3BodyOff},
		{l.blocksOff + 4*l.numEvents, l.succOff},
		{l.succOff + 2*l.numEvents, l.takenOff},
		{l.takenOff + l.numEvents, l.memOff},
		{l.memOff + 4*l.memTotal, l.memCntOff},
	} {
		for off := gap[0]; off < gap[1]; off++ {
			if data[off] != 0 {
				return nil, nil, fmt.Errorf("%w: nonzero padding byte at offset %d", ErrBadTrace, off)
			}
		}
	}

	// Tail payload: result and aux sections (both copied, never aliased).
	r := &traceReader{data: data[:crcOff], pos: l.tailOff}
	result, err := r.readResult()
	if err != nil {
		return nil, nil, err
	}
	var aux []AuxSection
	if flags&flagAux != 0 {
		if aux, err = r.readAux(); err != nil {
			return nil, nil, err
		}
	}
	if r.pos != crcOff {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrBadTrace, crcOff-r.pos)
	}

	cols := l.columns(data)
	// Taken bytes must be canonical booleans before a []bool may alias them.
	for i, b := range cols[2] {
		if b > 1 {
			return nil, nil, fmt.Errorf("%w: event %d taken byte %#02x", ErrBadTrace, i, b)
		}
	}

	t := &Trace{prog: prog, cfg: Config{MaxOps: maxOps}, result: result}
	if hostLittleEndian && (len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0) {
		t.borrowed = true
		t.blocks = aliasSlice[isa.BlockID](cols[0], l.numEvents)
		t.succIdx = aliasSlice[int16](cols[1], l.numEvents)
		t.taken = aliasSlice[bool](cols[2], l.numEvents)
		t.mem = aliasSlice[uint32](cols[3], l.memTotal)
		t.memCnt = aliasSlice[int32](cols[4], l.numBlocks)
	} else {
		t.blocks = make([]isa.BlockID, l.numEvents)
		t.succIdx = make([]int16, l.numEvents)
		t.taken = make([]bool, l.numEvents)
		t.mem = make([]uint32, l.memTotal)
		t.memCnt = make([]int32, l.numBlocks)
		for i := range t.blocks {
			t.blocks[i] = isa.BlockID(le.Uint32(cols[0][4*i:]))
			t.succIdx[i] = int16(le.Uint16(cols[1][2*i:]))
			t.taken[i] = cols[2][i] != 0
		}
		for i := range t.mem {
			t.mem[i] = le.Uint32(cols[3][4*i:])
		}
		for i := range t.memCnt {
			t.memCnt[i] = int32(le.Uint32(cols[4][4*i:]))
		}
	}

	// Structural validation against the program: static memory counts must
	// match, every committed block must exist, successor
	// indices must be in range, and the memory column must be exactly the
	// sum of the committed blocks' static counts.
	for id, n := range t.memCnt {
		if want := staticMemCount(prog.Blocks[id]); n != want {
			return nil, nil, fmt.Errorf("%w: B%d records %d memory operations, program has %d (trace/program mismatch)",
				ErrBadTrace, id, n, want)
		}
	}
	succCap := make([]int32, len(prog.Blocks))
	for id, b := range prog.Blocks {
		if b == nil {
			succCap[id] = -1
		} else {
			succCap[id] = int32(len(b.Succs))
		}
	}
	memSum := uint64(0)
	nb := uint32(len(prog.Blocks))
	for i, id := range t.blocks {
		if uint32(id) >= nb || succCap[id] < 0 {
			return nil, nil, fmt.Errorf("%w: event %d commits nonexistent block %d", ErrBadTrace, i, id)
		}
		if s := t.succIdx[i]; s < -1 || int32(s) >= succCap[id] {
			return nil, nil, fmt.Errorf("%w: event %d successor index %d out of range for B%d",
				ErrBadTrace, i, s, id)
		}
		memSum += uint64(t.memCnt[id])
	}
	if memSum != memTotal {
		return nil, nil, fmt.Errorf("%w: committed blocks imply %d memory addresses, column has %d", ErrBadTrace, memSum, memTotal)
	}
	return t, aux, nil
}

// aliasSlice reinterprets raw as a []T of length n without copying. The
// caller has already checked host endianness, base alignment, and (for bool)
// value canonicality; raw's backing memory must outlive the result.
func aliasSlice[T isa.BlockID | int16 | int32 | uint32 | bool](raw []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n)
}
