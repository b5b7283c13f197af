//go:build linux && !amd64 && !386

package realudp

import "syscall"

const (
	sysRECVMMSG = syscall.SYS_RECVMMSG
	sysSENDMMSG = syscall.SYS_SENDMMSG
	sysSENDMSG  = syscall.SYS_SENDMSG
)
