package core

import "hermes/internal/classifier"

// LastPartID exposes the most recently minted partition-fragment ID to the
// external test package (pinned_test.go): minting order is behaviour, because
// fragment IDs decide TCAM positions among equal-priority entries.
func (a *Agent) LastPartID() classifier.RuleID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.nextPartID - 1
}
