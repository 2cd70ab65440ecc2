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

// String names the error class in MPI vocabulary.
func (c ErrClass) String() string {
	switch c {
	case ErrOther:
		return "MPI_ERR_OTHER"
	case ErrComm:
		return "MPI_ERR_COMM"
	case ErrGroup:
		return "MPI_ERR_GROUP"
	case ErrRequest:
		return "MPI_ERR_REQUEST"
	case ErrOp:
		return "MPI_ERR_OP"
	case ErrType:
		return "MPI_ERR_TYPE"
	case ErrArg:
		return "MPI_ERR_ARG"
	case ErrRank:
		return "MPI_ERR_RANK"
	case ErrTag:
		return "MPI_ERR_TAG"
	case ErrCount:
		return "MPI_ERR_COUNT"
	case ErrTruncate:
		return "MPI_ERR_TRUNCATE"
	case ErrUnsupported:
		return "MPI_ERR_UNSUPPORTED_OPERATION"
	case ErrPending:
		return "MPI_ERR_PENDING"
	case ErrInStatus:
		return "MPI_ERR_IN_STATUS"
	default:
		return fmt.Sprintf("ErrClass(%d)", int(c))
	}
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
