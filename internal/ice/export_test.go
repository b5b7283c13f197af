package ice

// EarlyCheckRing is the number of unclaimed checks an agent keeps.
const EarlyCheckRing = earlyChecks

// EarlyChecks counts the unclaimed checks the agent is keeping.
func (a *Agent) EarlyChecks() int {
	n := 0
	for _, e := range a.early {
		if e.nonce != 0 {
			n++
		}
	}
	return n
}
