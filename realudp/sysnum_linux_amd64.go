//go:build linux && amd64

package realudp

import "syscall"

// The frozen stdlib syscall package predates sendmmsg on this arch;
// the numbers are ABI-stable (arch/x86/entry/syscalls).
const (
	sysRECVMMSG = 299
	sysSENDMMSG = 307
	sysSENDMSG  = syscall.SYS_SENDMSG
)
