package faults

import (
	"testing"
	"time"
)

// TestCrashErrorLegacyMessage pins the crash message formats: the
// unlabeled single-job message the determinism battery depends on, and
// the message of an injector that names its job (SetJobLabel), which
// multi-job diagnostics depend on.
func TestCrashErrorLegacyMessage(t *testing.T) {
	e := &CrashError{Rank: 3, VT: 1500 * time.Microsecond}
	want := "faults: node crash: rank 3 killed at vt=0.001500s"
	if e.Error() != want {
		t.Fatalf("legacy message = %q, want %q", e.Error(), want)
	}

	t.Run("labelled", func(t *testing.T) {
		inj := NewInjector(4, Plan{Events: []Event{
			{Kind: NodeCrash, Rank: 2, At: time.Millisecond, Step: -1},
		}})
		inj.SetJobLabel("hydro")
		if err := inj.CheckCall(2, 500*time.Microsecond); err != nil {
			t.Fatalf("crash fired before arm time: %v", err)
		}
		err := inj.CheckCall(2, 1500*time.Microsecond)
		ce, ok := err.(*CrashError)
		if !ok {
			t.Fatalf("check = %v, want *CrashError", err)
		}
		want := `faults: node crash: job "hydro" rank 2 killed at vt=0.001500s`
		if ce.Job != "hydro" || ce.Error() != want {
			t.Fatalf("labelled crash = %+v %q, want job hydro, %q", ce, ce.Error(), want)
		}
	})
}
