package sched

import (
	"fmt"
	"sort"
)

// PreemptMode selects what happens to lower-priority running jobs when
// a higher-priority job cannot be placed.
type PreemptMode int

const (
	// PreemptNone never disturbs running jobs.
	PreemptNone PreemptMode = iota
	// PreemptCheckpoint drains and commits the victim into its own
	// store, frees its nodes when the commit completes, and
	// requeues it to resume from the checkpoint — no work lost.
	PreemptCheckpoint
	// PreemptKill frees the victim's nodes immediately; everything
	// since its last committed generation is lost work. The control
	// arm the checkpoint policy is measured against.
	PreemptKill
)

// Policy is a scheduling policy: an ordering discipline plus the two
// capabilities that distinguish the registered policies. Policies are
// data, registered by name; Register adds custom ones.
type Policy struct {
	Name string
	// PriorityOrder scans the queue by (priority desc, submit asc)
	// instead of pure submit order, and stops at the first job it
	// cannot place (strict priority).
	PriorityOrder bool
	// Backfill lets jobs behind a blocked queue head start early when
	// they fit in free nodes and their estimate finishes before the
	// head's reservation shadow (EASY backfill, conservative with
	// respect to the head).
	Backfill bool
	// Preempt is applied for the first unplaceable job in scan order.
	Preempt PreemptMode
}

var policies = map[string]Policy{}

// policyOrder is the canonical listing order of the built-in policies.
var policyOrder = []string{"fifo", "backfill", "preempt", "kill"}

func init() {
	mustRegister(Policy{Name: "fifo"})
	mustRegister(Policy{Name: "backfill", Backfill: true})
	mustRegister(Policy{Name: "preempt", PriorityOrder: true, Preempt: PreemptCheckpoint})
	mustRegister(Policy{Name: "kill", PriorityOrder: true, Preempt: PreemptKill})
}

// Register adds a policy under its name; duplicate names are an error.
func Register(p Policy) error {
	if p.Name == "" {
		return fmt.Errorf("sched: policy needs a name")
	}
	if _, dup := policies[p.Name]; dup {
		return fmt.Errorf("sched: policy %q already registered", p.Name)
	}
	policies[p.Name] = p
	return nil
}

func mustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// PolicyByName resolves a registered policy.
func PolicyByName(name string) (Policy, error) {
	p, ok := policies[name]
	if !ok {
		return Policy{}, fmt.Errorf("sched: unknown policy %q (have %v)", name, Policies())
	}
	return p, nil
}

// Policies lists the registered policy names: the built-ins in
// canonical order, then any custom registrations sorted.
func Policies() []string {
	out := append([]string(nil), policyOrder...)
	var extra []string
	for name := range policies {
		builtin := false
		for _, b := range policyOrder {
			if name == b {
				builtin = true
				break
			}
		}
		if !builtin {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
