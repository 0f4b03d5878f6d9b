package fleet

import (
	"errors"

	"hermes/internal/classifier"
	"hermes/internal/intent"
)

// The fleet↔intent seam: *Fleet is the reconciler's intent.Target, and
// NewController builds the controller that owns this fleet's desired state.

// NewController builds the intent controller that reconciles this fleet:
// the fleet fills in the switch set, itself as the Target and ErrFleetClosed
// as the one permanent error, and from then on tells the controller of
// every reconnect (DirtyReconnect). cfg carries the rest — Store (routed by
// f.Route), Now, and any tuning. A fleet reports to the controller built
// last.
func (f *Fleet) NewController(cfg intent.Config) (*intent.Controller, error) {
	cfg.Switches = f.Switches()
	cfg.Target = f
	cfg.Permanent = func(err error) bool { return errors.Is(err, ErrFleetClosed) }
	c, err := intent.New(cfg)
	if err != nil {
		return nil, err
	}
	f.ctrl.Store(c)
	return c, nil
}

// reconnected announces a redialed switch whose circuit has closed.
func (f *Fleet) reconnected(switchID string) {
	if h := f.cfg.OnReconnect; h != nil {
		h(switchID)
	}
	if c := f.ctrl.Load(); c != nil {
		c.MarkDirty(switchID, intent.DirtyReconnect)
	}
}

// Ready implements intent.Target: a switch takes requests exactly while its
// circuit is closed — the condition submit and ObservedRules fail fast on —
// so the controller backs off instead of spending a reconcile on a
// guaranteed CircuitOpenError.
func (f *Fleet) Ready(switchID string) bool {
	w, ok := f.workers[switchID]
	return ok && w.brk.allow()
}

// Observe implements intent.Target with ObservedRules.
func (f *Fleet) Observe(switchID string) ([]classifier.Rule, error) {
	return f.ObservedRules(switchID)
}

// Apply implements intent.Target. The plan's leading deletes are queued
// together and awaited, then the modifies and inserts likewise, so a worker
// writes them in full groups (pipelined flow-mod frames, or under WireBatch
// full flow-mod-batch frames) instead of paying a round trip per rule.
func (f *Fleet) Apply(switchID string, plan []intent.Op) error {
	dels := 0
	for dels < len(plan) && plan[dels].Kind == intent.OpDelete {
		dels++
	}
	if err := f.applyAll(switchID, plan[:dels]); err != nil {
		return err
	}
	return f.applyAll(switchID, plan[dels:])
}

// applyAll queues ops on the switch, in full batches and then the rest,
// waits for every one it queued, and returns the first error in order.
func (f *Fleet) applyAll(switchID string, ops []intent.Op) error {
	var submitErr error
	chans := make([]<-chan OpResult, 0, len(ops))
	for _, o := range ops {
		ch, err := f.submit(switchID, &op{kind: o.Kind, rule: o.Rule}, true)
		if err != nil {
			submitErr = err
			break
		}
		chans = append(chans, ch)
	}
	if w, ok := f.workers[switchID]; ok {
		w.pump() // the ops short of a full batch
	}
	var first error
	for _, ch := range chans {
		if res := <-ch; res.Err != nil && first == nil {
			first = res.Err
		}
	}
	if first == nil {
		first = submitErr
	}
	return first
}
