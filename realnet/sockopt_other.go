//go:build !linux && !windows

package realnet

import "syscall"

func setReuse(fd uintptr) error {
	return syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
}
