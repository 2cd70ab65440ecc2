package mpi

import (
	"fmt"
	"reflect"
	"sync"
)

// User-operation registry.
//
// MPI_Op_create takes a bare function pointer. In C, MANA can replay
// OpCreate at restart because the function's address is part of the
// saved upper-half memory. Go function values cannot be serialized (and
// a function's address differs between the checkpointed process and
// the restarted one), so applications register their reduction
// functions under stable names at init time; MANA records the name in
// the virtual-id descriptor and re-resolves it at restart. Native
// execution ignores the registry.

var opRegistry = struct {
	sync.Mutex
	byName map[string]ReduceFunc
	byPtr  map[uintptr]string
}{
	byName: make(map[string]ReduceFunc),
	byPtr:  make(map[uintptr]string),
}

// RegisterOp registers a user reduction function under a stable name.
// Registering the same name twice with a different function is an error;
// re-registering the identical function is a no-op (package init may run
// in both the original and the restarted process).
func RegisterOp(name string, fn ReduceFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("mpi: RegisterOp requires a name and a function")
	}
	ptr := reflect.ValueOf(fn).Pointer()
	opRegistry.Lock()
	defer opRegistry.Unlock()
	if old, ok := opRegistry.byName[name]; ok {
		if reflect.ValueOf(old).Pointer() != ptr {
			return fmt.Errorf("mpi: op %q already registered with a different function", name)
		}
		return nil
	}
	opRegistry.byName[name] = fn
	opRegistry.byPtr[ptr] = name
	return nil
}

// OpNameOf finds the registered name of a function value.
func OpNameOf(fn ReduceFunc) (string, bool) {
	if fn == nil {
		return "", false
	}
	opRegistry.Lock()
	defer opRegistry.Unlock()
	name, ok := opRegistry.byPtr[reflect.ValueOf(fn).Pointer()]
	return name, ok
}

// OpByName resolves a registered reduction function.
func OpByName(name string) (ReduceFunc, bool) {
	opRegistry.Lock()
	defer opRegistry.Unlock()
	fn, ok := opRegistry.byName[name]
	return fn, ok
}
