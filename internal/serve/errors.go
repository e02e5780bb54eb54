package serve

// Error taxonomy → HTTP mapping: every failure a request can produce — bad
// input, exhausted budgets, saturation, degradation ladders running dry — is
// returned as a typed JSON error whose class is the resilience taxonomy's
// vocabulary (docs/SERVICE.md pins the full table). Nothing here ever turns
// into a process crash: handlers recover panics into apiErrors.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"specdis/internal/resilience"
)

// apiError is one request's typed failure: the HTTP status it maps to, the
// machine-readable class, and a human-readable message. It is the only error
// shape the daemon writes.
type apiError struct {
	Status int    `json:"-"`
	Class  string `json:"class"`
	Msg    string `json:"message"`
	// Cell names the failing evaluation cell when the failure came from the
	// engine ("bench/PIPELINE/mN"), so a chaos run's typed errors are
	// attributable.
	Cell string `json:"cell,omitempty"`
	// RetryAfter, when positive, is sent as a Retry-After header (seconds):
	// admission rejections are transient by construction.
	RetryAfter int `json:"retry_after,omitempty"`
}

func (e *apiError) Error() string { return e.Class + ": " + e.Msg }

// badRequest is a 400 with the given message.
func badRequest(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Class: "bad-request", Msg: msg}
}

// tooLarge is a 413 with the given message.
func tooLarge(msg string) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Class: "too-large", Msg: msg}
}

// errorFor maps an evaluation error onto its API shape. Engine failures
// arrive as resilience.CellErrors and map by class — budget classes are the
// client's fault (422/504), everything else is the server's (500). A plain
// error is a compile/infrastructure failure of the submitted source: 422.
func errorFor(err error) *apiError {
	var ce *resilience.CellError
	if errors.As(err, &ce) {
		status := http.StatusInternalServerError
		switch ce.Class {
		case resilience.ClassFuel:
			status = http.StatusUnprocessableEntity
		case resilience.ClassDeadline:
			status = http.StatusGatewayTimeout
		}
		return &apiError{Status: status, Class: ce.Class.String(), Msg: ce.Err.Error(), Cell: ce.Cell()}
	}
	switch resilience.Classify(err) {
	case resilience.ClassFuel:
		return &apiError{Status: http.StatusUnprocessableEntity, Class: "fuel", Msg: err.Error()}
	case resilience.ClassDeadline:
		return &apiError{Status: http.StatusGatewayTimeout, Class: "deadline", Msg: err.Error()}
	}
	return &apiError{Status: http.StatusUnprocessableEntity, Class: "invalid-source", Msg: err.Error()}
}

// writeError writes the error as the response: status, optional Retry-After,
// and a {"error": {...}} JSON body.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(map[string]*apiError{"error": e})
}
