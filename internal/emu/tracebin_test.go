package emu_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// codecProgram compiles one generated program, enlarged when block-structured,
// laid out either way (the trace references block addresses via the program).
func codecProgram(t testing.TB, seed int64, kind isa.Kind) *isa.Program {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "codec", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if kind == isa.BlockStructured {
		if _, err := core.Enlarge(prog, core.Params{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	prog.Layout()
	return prog
}

// replayEvents collects a trace's full replayed event stream as deep copies.
func replayEvents(t *testing.T, tr *emu.Trace) []recordedEvent {
	t.Helper()
	var evs []recordedEvent
	if err := tr.Replay(func(ev *emu.BlockEvent) error {
		evs = append(evs, copyEvent(ev))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return evs
}

// TestTraceCodecRoundTrip is the format's property test: over generated
// programs for both ISAs, Decode(Encode(t)) replays field-for-field identical
// to t, carries the same functional result and budget, re-encodes
// byte-identically, and round-trips the optional aux sections.
func TestTraceCodecRoundTrip(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(9100); seed < 9100+int64(seeds); seed++ {
		for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured} {
			prog := codecProgram(t, seed, kind)
			cfg := emu.Config{MaxOps: 40_000_000}
			tr, err := emu.Record(prog, cfg)
			if err != nil {
				t.Fatalf("seed %d: record: %v", seed, err)
			}

			aux := []emu.AuxSection{{Tag: 8, Data: []byte{0xde, 0xad, byte(seed)}}}
			multi := []emu.AuxSection{
				{Tag: 8, Data: []byte{0xde, 0xad, byte(seed)}},
				{Tag: 16, Data: []byte{0xbe, 0xef}},
			}
			for _, tc := range []struct {
				name string
				aux  []emu.AuxSection
			}{{"no-aux", nil}, {"aux", aux}, {"multi-aux", multi}} {
				blob := tr.EncodeBytes(tc.aux)
				got, gotAux, err := emu.DecodeTrace(blob, prog)
				if err != nil {
					t.Fatalf("seed %d %s: decode: %v", seed, tc.name, err)
				}
				if !reflect.DeepEqual(gotAux, tc.aux) {
					t.Fatalf("seed %d %s: aux = %+v, want %+v", seed, tc.name, gotAux, tc.aux)
				}
				if got.NumEvents() != tr.NumEvents() {
					t.Fatalf("seed %d %s: %d events, want %d", seed, tc.name, got.NumEvents(), tr.NumEvents())
				}
				if got.EmuConfig() != tr.EmuConfig() {
					t.Fatalf("seed %d %s: config %+v, want %+v", seed, tc.name, got.EmuConfig(), tr.EmuConfig())
				}
				if !reflect.DeepEqual(got.EmuResult(), tr.EmuResult()) {
					t.Fatalf("seed %d %s: functional result diverges:\ngot  %+v\nwant %+v",
						seed, tc.name, got.EmuResult(), tr.EmuResult())
				}
				want, have := replayEvents(t, tr), replayEvents(t, got)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("seed %d %s: decoded trace replays a different event stream", seed, tc.name)
				}
				if again := got.EncodeBytes(tc.aux); !bytes.Equal(again, blob) {
					t.Fatalf("seed %d %s: re-encoding the decoded trace is not byte-identical", seed, tc.name)
				}
			}
		}
	}
}

// TestTraceCodecDetectsCorruption flips every byte of one encoding in turn
// (and truncates at every prefix length, sampled) and requires DecodeTrace to
// reject each mutant with ErrBadTrace — never panic, never succeed.
func TestTraceCodecDetectsCorruption(t *testing.T) {
	prog := codecProgram(t, 9021, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{MaxOps: 40_000_000})
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeBytes([]emu.AuxSection{{Tag: 16, Data: []byte("predecode-tables-go-here")}})
	if _, _, err := emu.DecodeTrace(blob, prog); err != nil {
		t.Fatalf("pristine blob must decode: %v", err)
	}

	stride := 1
	if len(blob) > 4096 {
		stride = len(blob) / 4096
	}
	for i := 0; i < len(blob); i += stride {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x40
		if _, _, err := emu.DecodeTrace(mutant, prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("flipping byte %d of %d: err = %v, want ErrBadTrace", i, len(blob), err)
		}
	}
	for _, n := range []int{0, 1, 7, 8, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		if _, _, err := emu.DecodeTrace(blob[:n], prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("truncating to %d of %d bytes: err = %v, want ErrBadTrace", n, len(blob), err)
		}
	}
}

// TestTraceCodecRejectsVersionAndProgramMismatch covers the header checks:
// any version but the current one fails even with a valid header checksum —
// the superseded v1/v2 varint layouts included, so a store holding one
// quarantines and re-records it — and a trace decoded against a different
// program (here: the block-structured compile of the same source) is
// rejected rather than replayed wrong.
func TestTraceCodecRejectsVersionAndProgramMismatch(t *testing.T) {
	conv := codecProgram(t, 9022, isa.Conventional)
	bsa := codecProgram(t, 9022, isa.BlockStructured)
	tr, err := emu.Record(conv, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeBytes(nil)

	for _, ver := range []byte{1, 2, 99} {
		other := append([]byte(nil), blob...)
		other[4] = ver
		binary.LittleEndian.PutUint32(other[60:], crc32.Checksum(other[:60], crc32.MakeTable(crc32.Castagnoli)))
		if _, _, err := emu.DecodeTrace(other, conv); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("version %d: err = %v, want ErrBadTrace", ver, err)
		}
	}
	if _, _, err := emu.DecodeTrace(blob, bsa); !errors.Is(err, emu.ErrBadTrace) {
		t.Fatalf("wrong program: err = %v, want ErrBadTrace", err)
	}
}

// TestTraceCodecRejectsNonCanonicalAux pins the canonical-form rule that makes
// per-width aux sections unambiguous: tags must strictly increase, so a
// descending or duplicated tag — the shape the old "one untagged section"
// format could silently clobber into — is rejected at decode, never served.
func TestTraceCodecRejectsNonCanonicalAux(t *testing.T) {
	prog := codecProgram(t, 9023, isa.Conventional)
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		aux  []emu.AuxSection
	}{
		{"descending-tags", []emu.AuxSection{{Tag: 16, Data: []byte("b")}, {Tag: 8, Data: []byte("a")}}},
		{"duplicate-tags", []emu.AuxSection{{Tag: 16, Data: []byte("a")}, {Tag: 16, Data: []byte("b")}}},
	} {
		if _, _, err := emu.DecodeTrace(tr.EncodeBytes(tc.aux), prog); !errors.Is(err, emu.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", tc.name, err)
		}
	}
}
