//go:build windows

package realnet

import "syscall"

// setReuse takes the socket as Windows hands it out: a handle, not an
// int descriptor.
func setReuse(fd uintptr) error {
	return syscall.SetsockoptInt(syscall.Handle(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
}
