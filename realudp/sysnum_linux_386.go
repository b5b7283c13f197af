//go:build linux && 386

package realudp

// The frozen stdlib syscall package predates sendmmsg on this arch,
// and sendmsg as a system call of its own (socketcall(2) until Linux
// 4.3, older than the UDP_SEGMENT it carries); the numbers are
// ABI-stable (arch/x86/entry/syscalls).
const (
	sysRECVMMSG = 337
	sysSENDMMSG = 345
	sysSENDMSG  = 370
)
