// Package failure defines the typed error taxonomy of the
// synthesize→translate→validate pipeline. Every error that crosses a
// package boundary on the way to the public siro facade or a CLI is
// tagged with exactly one Class, so callers can react to the *kind* of
// failure (retry, add a test case, raise the budget, report a bug)
// without string matching, and the CLIs can key their exit codes off it.
//
// The classes mirror the pipeline's trust boundaries:
//
//	Parse       — textual IR or mini-C input could not be read at the
//	              requested version (text incompatibility, corruption).
//	Synthesis   — the search could not produce a translator (no
//	              candidates, no satisfying per-test translator,
//	              contradictory tests).
//	Validation  — differential execution disagreed with the oracle, a
//	              module failed verification, or execution itself failed.
//	Budget      — a step, enumeration, or wall-clock bound was exhausted
//	              before an answer was reached.
//	Unsupported — a construct has no translation at the target version
//	              (uncovered kind, unseen sub-kind, new instruction with
//	              no handler).
//	Auth        — the caller could not be identified: a missing, unknown,
//	              or revoked API key at the multi-tenant gateway.
//
// Classification is sticky: the first (innermost) class attached to an
// error wins, so an ErrBudget raised deep inside validation is still
// reported as Budget after the synthesis layer re-wraps it.
package failure

import (
	"context"
	"errors"
	"fmt"
)

// Class is one error-taxonomy class. Classes are matched by identity
// through errors.Is, so wrapped detail never interferes.
type Class struct{ name string }

// Error makes a Class usable as an errors.Is target and as a bare error.
func (c *Class) Error() string { return c.name }

// The six classes of the pipeline failure model.
var (
	Parse       = &Class{"parse error"}
	Synthesis   = &Class{"synthesis error"}
	Validation  = &Class{"validation error"}
	Budget      = &Class{"budget exhausted"}
	Unsupported = &Class{"unsupported construct"}
	Auth        = &Class{"authentication failed"}
)

// classes in ExitCode priority order.
var classes = []*Class{Parse, Synthesis, Validation, Budget, Unsupported, Auth}

// Classes returns every class, in ExitCode priority order. The slice
// is a fresh copy, so callers cannot reorder the taxonomy.
func Classes() []*Class { return append([]*Class(nil), classes...) }

// classified tags an error with its class; both the class and the
// wrapped error stay visible to errors.Is/errors.As.
type classified struct {
	class *Class
	err   error
}

func (e *classified) Error() string   { return e.class.name + ": " + e.err.Error() }
func (e *classified) Unwrap() []error { return []error{e.class, e.err} }

// Wrap tags err with class. A nil err stays nil, and an error that
// already carries a class is returned unchanged (innermost wins).
func Wrap(class *Class, err error) error {
	if err == nil {
		return nil
	}
	if ClassOf(err) != nil {
		return err
	}
	return &classified{class: class, err: err}
}

// Wrapf builds a formatted error (supporting %w) tagged with class. As
// with Wrap, an operand that already carries a class keeps it.
func Wrapf(class *Class, format string, args ...any) error {
	return Wrap(class, fmt.Errorf(format, args...))
}

// ClassOf returns the class an error carries, or nil for unclassified
// errors (including nil).
func ClassOf(err error) *Class {
	if err == nil {
		return nil
	}
	for _, c := range classes {
		if errors.Is(err, c) {
			return c
		}
	}
	return nil
}

// FromContext classifies a context error as Budget: a job whose
// deadline expired or whose caller gave up has exhausted its wall-clock
// allowance, the same resource class as an interpreter step budget. Any
// other error is returned unchanged (already-classified errors keep
// their class per Wrap).
func FromContext(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return Wrapf(Budget, "deadline exceeded: %w", err)
	}
	if errors.Is(err, context.Canceled) {
		return Wrapf(Budget, "canceled: %w", err)
	}
	return err
}

// ExitCode maps an error to the CLI exit code contract: 0 success,
// 1 unclassified, then one code per class. Usage errors (2) are the
// CLI's own.
func ExitCode(err error) int {
	switch ClassOf(err) {
	case nil:
		if err == nil {
			return 0
		}
		return 1
	case Parse:
		return 3
	case Synthesis:
		return 4
	case Validation:
		return 5
	case Budget:
		return 6
	case Unsupported:
		return 7
	case Auth:
		return 8
	}
	return 1
}
