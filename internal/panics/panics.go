// Package panics turns a panic at a goroutine boundary into an error, so
// one faulty model fails the request that ran it instead of the process
// serving every other request.
package panics

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Error is a recovered panic: the panic value plus the stack of the
// goroutine that panicked.
type Error struct {
	Value any
	Stack []byte
}

func (e *Error) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recover, deferred directly, stores a recovered panic into *err:
//
//	defer panics.Recover(&err)
//
// It leaves *err alone when the function returned normally.
func Recover(err *error) {
	if r := recover(); r != nil {
		*err = &Error{Value: r, Stack: debug.Stack()}
	}
}

// Is reports whether err, or any error it wraps, is a recovered panic.
func Is(err error) bool {
	var pe *Error
	return errors.As(err, &pe)
}
