package stream

// Wakeups reports how many times the session has woken its blocked
// callers so far.
func (s *Session) Wakeups() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// EngineEvent is the engine's readable/writable callback (engine
// context only), for tests that count what one costs.
func (s *Session) EngineEvent() { s.engineEvent(nil) }
