//go:build linux

package realnet

import "syscall"

// soReusePort is SO_REUSEPORT on Linux (not exported by the syscall
// package).
const soReusePort = 0xf

func setReuse(fd uintptr) error {
	if err := syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		return err
	}
	return syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
}
