package telemetry

// LedgerOf returns the ledger BeginRun last attached to t, for the
// external tests that check a report against it.
func LedgerOf(t *Telemetry) *Ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ledger
}
