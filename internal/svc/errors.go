package svc

import (
	"context"
	"errors"
)

// Typed request-validation errors. Every failure DecodeRequest or
// BuildConfig reports wraps exactly one of the specific sentinels below, and
// each specific sentinel wraps ErrBadRequest, so callers can classify at
// either granularity with errors.Is:
//
//	errors.Is(err, svc.ErrBadSweep)   // this sweep spec is malformed
//	errors.Is(err, svc.ErrBadRequest) // any client error -> HTTP 400
//
// The sentinels replace the scattered fmt.Errorf strings that previously
// leaked out of config assembly: message text stays free to improve without
// breaking callers that branch on the failure class.
var (
	// ErrBadRequest is the root class of every client-caused failure.
	ErrBadRequest = errors.New("svc: bad request")
	// ErrBadVersion marks a request whose schema version this server does
	// not speak.
	ErrBadVersion = newBadRequest("unsupported schema version")
	// ErrBadProgram marks a malformed program spec (no source, ambiguous
	// source, unknown ISA or workload, enlargement on the wrong ISA, ...).
	ErrBadProgram = newBadRequest("bad program spec")
	// ErrBadGeometry marks an invalid processor or cache configuration.
	ErrBadGeometry = newBadRequest("bad machine geometry")
	// ErrBadSweep marks a malformed sweep spec.
	ErrBadSweep = newBadRequest("bad sweep spec")
	// ErrTooLarge marks a request body over maxRequestBytes.
	ErrTooLarge = newBadRequest("request body too large")
)

// badRequestError is a sentinel that also matches ErrBadRequest.
type badRequestError struct{ msg string }

func newBadRequest(msg string) error { return &badRequestError{msg: msg} }

func (e *badRequestError) Error() string { return "svc: " + e.msg }
func (e *badRequestError) Is(target error) bool {
	return target == ErrBadRequest
}

// ErrorCode classifies a failure into the machine-readable code carried in
// SimResponse.ErrorCode, derived from the errors.Is taxonomy above (plus the
// server's availability sentinels and context outcomes). The specific
// sentinels are tested before the ErrBadRequest root so the code is as
// precise as the taxonomy allows. Returns "" for nil.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBadVersion):
		return "bad_version"
	case errors.Is(err, ErrBadProgram):
		return "bad_program"
	case errors.Is(err, ErrBadGeometry):
		return "bad_geometry"
	case errors.Is(err, ErrBadSweep):
		return "bad_sweep"
	case errors.Is(err, ErrTooLarge):
		return "too_large"
	case errors.Is(err, ErrBadRequest):
		return "bad_request"
	case errors.Is(err, errDraining), errors.Is(err, errQueueFull):
		return "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "internal"
	}
}
