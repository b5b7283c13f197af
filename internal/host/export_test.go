package host

import "natpunch/internal/inet"

// OnError sets the callback for ICMP errors attributed to this
// socket's traffic.
func (s *UDPSocket) OnError(fn func(about inet.Endpoint, err error)) { s.onError = fn }
