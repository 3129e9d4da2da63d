package uarch

import (
	"errors"
	"reflect"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

func codecProg(t *testing.T, seed int64, kind isa.Kind) *isa.Program {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "predecode", compile.DefaultOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	if kind == isa.BlockStructured {
		if _, err := core.Enlarge(prog, core.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	prog.Layout()
	return prog
}

// TestPredecodedCodecRoundTrip requires DecodePredecoded(EncodeBytes()) to
// rebuild tables deep-equal to a fresh Predecode, for both ISAs, the fused
// backend's pair-folded tables and a non-default issue width — the
// equivalence that lets a store-loaded predecode substitute for a freshly
// flattened one. The encoder sizes its buffer exactly.
func TestPredecodedCodecRoundTrip(t *testing.T) {
	for _, kind := range []isa.Kind{isa.Conventional, isa.BlockStructured, isa.MacroFused} {
		for _, iw := range []int{0, 4} {
			prog := codecProg(t, 8841, kind)
			want := Predecode(prog, iw)
			blob := want.EncodeBytes()
			if len(blob) != cap(blob) {
				t.Fatalf("kind %v iw %d: encoded %d bytes into a %d-byte buffer", kind, iw, len(blob), cap(blob))
			}
			got, err := DecodePredecoded(blob, prog)
			if err != nil {
				t.Fatalf("kind %v iw %d: %v", kind, iw, err)
			}
			if got.issueWidth != want.issueWidth {
				t.Fatalf("kind %v: issue width %d, want %d", kind, got.issueWidth, want.issueWidth)
			}
			if !reflect.DeepEqual(got.lp, want.lp) {
				t.Fatalf("kind %v iw %d: decoded tables diverge from a fresh flatten", kind, iw)
			}
		}
	}
}

// TestPredecodedCodecRejectsMismatch: a blob decoded against a different
// program, a truncated blob, and an unknown version must all fail with
// ErrBadPredecode.
func TestPredecodedCodecRejectsMismatch(t *testing.T) {
	conv := codecProg(t, 8842, isa.Conventional)
	bsa := codecProg(t, 8842, isa.BlockStructured)
	blob := Predecode(conv, 0).EncodeBytes()

	if _, err := DecodePredecoded(blob, bsa); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("wrong program: err = %v, want ErrBadPredecode", err)
	}
	// The fused backend compiles the same blocks as conv, so only the
	// folded pair counts tell the two tables apart.
	if _, err := DecodePredecoded(blob, codecProg(t, 8842, isa.MacroFused)); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("unfused tables for a fused program: err = %v, want ErrBadPredecode", err)
	}
	for _, n := range []int{0, 1, 3, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodePredecoded(blob[:n], conv); !errors.Is(err, ErrBadPredecode) {
			t.Fatalf("truncated to %d: err = %v, want ErrBadPredecode", n, err)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 9
	if _, err := DecodePredecoded(bad, conv); !errors.Is(err, ErrBadPredecode) {
		t.Fatalf("future version: err = %v, want ErrBadPredecode", err)
	}
}
