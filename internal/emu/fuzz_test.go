package emu_test

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// alignedCopy copies data into a fresh 8-byte-aligned buffer, the alignment
// every mmapped file has, so DecodeTrace takes its zero-copy aliasing path.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(buf, data)
	return buf
}

// FuzzDecodeTrace feeds arbitrary bytes to DecodeTrace against a fixed
// program. Every input must either fail with an error wrapping ErrBadTrace,
// or decode to a trace whose EncodeBytes decodes again to the same event
// stream, result, and aux sections. Corrupt bytes must never panic, and a
// trace aliasing the input must stay self-consistent.
func FuzzDecodeTrace(f *testing.F) {
	prog := codecProgram(f, 9027, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tr.EncodeBytes(nil))
	f.Add(tr.EncodeBytes([]emu.AuxSection{{Tag: 8, Data: []byte("narrow")}, {Tag: 16, Data: []byte("wide")}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, aux, err := emu.DecodeTrace(alignedCopy(data), prog)
		if err != nil {
			if !errors.Is(err, emu.ErrBadTrace) {
				t.Fatalf("decode failed without wrapping ErrBadTrace: %v", err)
			}
			return
		}
		again, againAux, err := emu.DecodeTrace(alignedCopy(dec.EncodeBytes(aux)), prog)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(replayEvents(t, again), replayEvents(t, dec)) {
			t.Fatal("re-encoded trace replays a different event stream")
		}
		if !reflect.DeepEqual(again.EmuResult(), dec.EmuResult()) || again.EmuConfig() != dec.EmuConfig() {
			t.Fatal("re-encoded trace carries a different result or budget")
		}
		if !reflect.DeepEqual(againAux, aux) {
			t.Fatalf("aux sections diverge: %+v vs %+v", againAux, aux)
		}
	})
}
