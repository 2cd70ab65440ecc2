package mpi

import "fmt"

// ErrClass is an MPI error class (MPI_ERR_*).
type ErrClass int

// Error classes used by the simulated implementations.
const (
	ErrOther ErrClass = iota
	ErrComm
	ErrGroup
	ErrRequest
	ErrOp
	ErrType
	ErrArg
	ErrRank
	ErrTag
	ErrCount
	ErrTruncate
	ErrUnsupported
	ErrPending
	ErrInStatus
)

// errClassNames names each error class in MPI vocabulary.
var errClassNames = [...]string{
	ErrOther:       "MPI_ERR_OTHER",
	ErrComm:        "MPI_ERR_COMM",
	ErrGroup:       "MPI_ERR_GROUP",
	ErrRequest:     "MPI_ERR_REQUEST",
	ErrOp:          "MPI_ERR_OP",
	ErrType:        "MPI_ERR_TYPE",
	ErrArg:         "MPI_ERR_ARG",
	ErrRank:        "MPI_ERR_RANK",
	ErrTag:         "MPI_ERR_TAG",
	ErrCount:       "MPI_ERR_COUNT",
	ErrTruncate:    "MPI_ERR_TRUNCATE",
	ErrUnsupported: "MPI_ERR_UNSUPPORTED_OPERATION",
	ErrPending:     "MPI_ERR_PENDING",
	ErrInStatus:    "MPI_ERR_IN_STATUS",
}

// String names the error class in MPI vocabulary.
func (c ErrClass) String() string {
	if c >= 0 && int(c) < len(errClassNames) {
		return errClassNames[c]
	}
	return fmt.Sprintf("ErrClass(%d)", int(c))
}

// Error is an MPI error with a class and context message.
type Error struct {
	Class ErrClass
	Msg   string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Class.String() + ": " + e.Msg }

// Errorf builds an *Error with a formatted message.
func Errorf(class ErrClass, format string, args ...any) *Error {
	return &Error{Class: class, Msg: fmt.Sprintf(format, args...)}
}
