package punch

import (
	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// EarlyCheckRing is the number of unclaimed checks a client keeps.
const EarlyCheckRing = earlyChecks

// MaxChecks bounds the checks a negotiation holds before a check from
// an unknown source starts no probe loop.
const MaxChecks = maxChecks

// EarlyChecks counts the unclaimed checks c is keeping.
func (c *Client) EarlyChecks() int {
	n := 0
	for _, e := range c.early {
		if e.nonce != 0 {
			n++
		}
	}
	return n
}

// InterceptUDP puts f in front of c's message dispatch, and of any f
// installed before it: f sees every decoded message and passes on
// what it lets through by calling next, now or later.
func InterceptUDP(c *Client, f func(next func(inet.Endpoint, *proto.Message), from inet.Endpoint, m *proto.Message)) {
	next := c.dispatchUDP
	if c.testDispatch != nil {
		next = c.testDispatch
	}
	c.testDispatch = func(from inet.Endpoint, m *proto.Message) { f(next, from, m) }
}

// PublicTCP returns the client's public TCP endpoint as observed by S.
func (c *Client) PublicTCP() inet.Endpoint { return c.tcpPublic }
