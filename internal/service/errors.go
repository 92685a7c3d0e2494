package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"syscall"
	"time"
)

// Code is a machine-readable error class. Every failure the service
// produces is one of these — the chaos property ("every request
// succeeds or fails cleanly with a typed error") is checkable because
// clients never see an untyped failure body.
type Code string

const (
	// CodeBadRequest: the request was syntactically or semantically
	// invalid (malformed JSON, unknown field, missing parameter).
	CodeBadRequest Code = "bad_request"
	// CodeBodyTooLarge: the request body exceeded the configured cap.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeCorruptTrace: the uploaded tracefile failed its checksums.
	CodeCorruptTrace Code = "corrupt_trace"
	// CodeNotFound: no stored signature matches the identity.
	CodeNotFound Code = "not_found"
	// CodeRepoCorrupt: the stored entry exists but fails verification;
	// retry after fsck has quarantined it and the entry is re-added.
	CodeRepoCorrupt Code = "repo_corrupt"
	// CodeQueueFull: the class's admission queue is at capacity.
	CodeQueueFull Code = "queue_full"
	// CodeShed: admission control refused to start work that could not
	// finish inside its deadline (or the deadline expired while the
	// request was still queued — no work was wasted on it).
	CodeShed Code = "shed"
	// CodeDraining: the server is shutting down and not accepting work.
	CodeDraining Code = "draining"
	// CodeDeadline: the deadline expired after work had started; the
	// pipeline was cancelled at a stage boundary.
	CodeDeadline Code = "deadline_exceeded"
	// CodePanic: the handler panicked; the request died but the server
	// lives (the panic and stack are on the flight recorder).
	CodePanic Code = "internal_panic"
	// CodeInsufficientStorage: the server's disk filled (ENOSPC) while
	// spooling an upload or spilling phase matrices; retry once space
	// is freed.
	CodeInsufficientStorage Code = "insufficient_storage"
	// CodeInternal: any other server-side failure.
	CodeInternal Code = "internal"
)

// APIError is the typed failure a handler returns; it renders as the
// JSON error envelope plus the HTTP status and optional Retry-After.
type APIError struct {
	Status     int
	Code       Code
	Message    string
	RetryAfter time.Duration // > 0 adds a Retry-After header
}

func (e *APIError) Error() string { return fmt.Sprintf("%s (%d %s)", e.Message, e.Status, e.Code) }

// errorBody is the JSON wire form of an APIError.
type errorBody struct {
	Error struct {
		Code       Code   `json:"code"`
		Message    string `json:"message"`
		RetryAfter int    `json:"retry_after_s,omitempty"`
	} `json:"error"`
}

// write renders the error onto w. Retry-After is emitted in whole
// seconds (rounded up — the header does not allow fractions) and
// mirrored into the body so clients need not parse headers.
func (e *APIError) write(w http.ResponseWriter) {
	ra := 0
	if e.RetryAfter > 0 {
		ra = int((e.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ra))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	var b errorBody
	b.Error.Code = e.Code
	b.Error.Message = e.Message
	b.Error.RetryAfter = ra
	json.NewEncoder(w).Encode(&b) //nolint:errcheck // client gone
}

func errBadRequest(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func errBodyTooLarge(limit int64) *APIError {
	return &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodeBodyTooLarge,
		Message: fmt.Sprintf("request body exceeds %d bytes", limit)}
}

func errCorruptTrace(err error) *APIError {
	return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeCorruptTrace,
		Message: fmt.Sprintf("tracefile rejected: %v", err)}
}

func errNotFound(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusNotFound, Code: CodeNotFound, Message: fmt.Sprintf(format, args...)}
}

func errRepoCorrupt(err error, retryAfter time.Duration) *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Code: CodeRepoCorrupt,
		Message: fmt.Sprintf("stored entry failed verification (run fsck): %v", err), RetryAfter: retryAfter}
}

func errQueueFull(class string, retryAfter time.Duration) *APIError {
	return &APIError{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
		Message: fmt.Sprintf("%s admission queue is full", class), RetryAfter: retryAfter}
}

func errShed(reason string, retryAfter time.Duration) *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Code: CodeShed,
		Message: "request shed before any work started: " + reason, RetryAfter: retryAfter}
}

func errDraining() *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
		Message: "server is draining", RetryAfter: time.Second}
}

func errDeadline(op string) *APIError {
	return &APIError{Status: http.StatusGatewayTimeout, Code: CodeDeadline,
		Message: op + " abandoned: deadline exceeded"}
}

func errPanic() *APIError {
	return &APIError{Status: http.StatusInternalServerError, Code: CodePanic,
		Message: "handler panicked; the panic and stack were recorded on the flight recorder"}
}

func errInternal(err error) *APIError {
	return &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// asAPIError coerces any handler error into a typed one: APIErrors
// pass through, context errors become the deadline/shed taxonomy, a
// full disk (ENOSPC, from the upload spool or the spill store) is
// insufficient_storage, and everything else is an internal error.
func asAPIError(err error, op string) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errDeadline(op)
	}
	if errors.Is(err, context.Canceled) {
		// The base context only dies when the server drains; a client
		// disconnect cancels the request context the same way, and
		// "draining" is still the honest per-request answer: no result
		// was produced and the caller should go elsewhere.
		return &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message: op + " abandoned: request cancelled", RetryAfter: time.Second}
	}
	if errors.Is(err, syscall.ENOSPC) {
		return &APIError{Status: http.StatusInsufficientStorage, Code: CodeInsufficientStorage,
			Message: fmt.Sprintf("%s abandoned: out of disk space: %v", op, err), RetryAfter: 5 * time.Second}
	}
	return errInternal(err)
}
