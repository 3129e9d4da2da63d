package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
)

// TestServerFourBackends is the registry acceptance check: every registered
// ISA backend must answer a single-config request over HTTP, field-for-field
// identical to the direct compile → shape → record → replay pipeline.
func TestServerFourBackends(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)

	for _, name := range backend.Names() {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: name},
			Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		}
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, resp.Error)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%s: %d results", name, len(resp.Results))
		}

		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		be, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(be.Kind()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Shape(prog, core.Params{}); err != nil {
			t.Fatal(err)
		}
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := uarch.ReplayTrace(tr, plan.Configs[0])
		if err != nil {
			t.Fatal(err)
		}
		if want := ResultOf(2048, r); resp.Results[0] != want {
			t.Fatalf("%s diverges from the direct path:\nservice: %+v\ndirect:  %+v", name, resp.Results[0], want)
		}
	}
}

// TestErrorCodeMapping pins the errors.Is → wire-code taxonomy.
func TestErrorCodeMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("x: %w", ErrBadVersion), "bad_version"},
		{fmt.Errorf("x: %w", ErrBadProgram), "bad_program"},
		{fmt.Errorf("x: %w", ErrBadGeometry), "bad_geometry"},
		{fmt.Errorf("x: %w", ErrBadSweep), "bad_sweep"},
		{fmt.Errorf("x: %w", ErrTooLarge), "too_large"},
		{fmt.Errorf("x: %w", ErrBadRequest), "bad_request"},
		{errDraining, "unavailable"},
		{errQueueFull, "unavailable"},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), "timeout"},
		{fmt.Errorf("x: %w", context.Canceled), "canceled"},
		{errors.New("disk on fire"), "internal"},
	} {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestServerErrorCodes requires rejected requests to carry the
// machine-readable error_code alongside the text, and the unknown-ISA
// rejection to list the registry.
func TestServerErrorCodes(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(1)
	cases := []struct {
		name       string
		req        *SimRequest
		wantStatus int
		wantCode   string
	}{
		{"bad version", &SimRequest{Version: 9, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{}}, http.StatusBadRequest, "bad_version"},
		{"unknown isa", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "vliw"},
			Config: &ConfigSpec{}}, http.StatusBadRequest, "bad_program"},
		{"bad geometry", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Config: &ConfigSpec{ICache: &CacheSpec{SizeBytes: 3000}}}, http.StatusBadRequest, "bad_geometry"},
		{"bad sweep", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep: &SweepSpec{}}, http.StatusBadRequest, "bad_sweep"},
		{"no engine", &SimRequest{Version: SchemaVersion, Program: ProgramSpec{Seed: &seed, ISA: "conv"}},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, resp := post(t, ts, tc.req)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, resp.Error)
			}
			if resp.ErrorCode != tc.wantCode {
				t.Fatalf("error_code %q, want %q (error: %s)", resp.ErrorCode, tc.wantCode, resp.Error)
			}
			if resp.Error == "" {
				t.Fatal("envelope carries a code but no error text")
			}
		})
	}

	// The unknown-ISA text lists every registered backend.
	_, resp := post(t, ts, cases[1].req)
	if !strings.Contains(resp.Error, "registered backends") ||
		!strings.Contains(resp.Error, "basicblocker") {
		t.Fatalf("unknown-ISA error does not list the registry: %q", resp.Error)
	}

	// Successful responses carry no code.
	okStatus, okResp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if okStatus != http.StatusOK || okResp.ErrorCode != "" {
		t.Fatalf("ok response: status %d, error_code %q", okStatus, okResp.ErrorCode)
	}
}
