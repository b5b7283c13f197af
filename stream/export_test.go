package stream

// Wakeups reports how many times the session has woken blocked
// callers so far: its own waiters and its streams' alike.
func (s *Session) Wakeups() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wakes
}

// PendingPings reports how many ping tokens the session is holding.
func (s *Session) PendingPings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pongs)
}

// Wakeups reports how many times the stream has woken its blocked
// callers so far.
func (st *Stream) Wakeups() uint64 {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	return st.gen
}

// EngineEvent is the engine's readable/writable callback for the
// stream (engine context only), for tests that count what one costs.
func (st *Stream) EngineEvent() { st.s.engineEvent(st.es) }

// Invoke runs fn in the session's engine context.
func (s *Session) Invoke(fn func()) { s.tr.Invoke(fn) }
