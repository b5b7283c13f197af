package nat

import "natpunch/internal/inet"

// SetBasicNATPool switches the device to Basic NAT mode: private host
// addresses are mapped one-to-one onto pool addresses with ports
// preserved (§2.1). The pool addresses must also be attached to the
// outside segment via AttachOutside so traffic routes back.
func (nat *NAT) SetBasicNATPool(addrs []inet.Addr) { nat.pool = addrs }
