//go:build linux

package realudp

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message transfer count. The trailing pad matches the C struct's
// alignment padding — 4 bytes after the u32 on 64-bit ABIs (msghdr
// contains pointers, so the array stride rounds up), none on 32-bit.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [unsafe.Sizeof(uintptr(0)) - 4]byte
}

// batchState is the reusable syscall scratch for one direction: the
// mmsghdr/iovec/sockaddr arrays grow to the largest batch seen and
// are rebuilt in place per call, so steady-state batches allocate
// nothing.
type batchState struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4

	// UDP GSO scratch (WriteBatch only): the super-datagram gathered
	// from a run whose payloads do not already lie back to back, how
	// many runs needed that (what the in-place tests count), the
	// UDP_SEGMENT control message, and the sticky opt-out set the first
	// time the kernel rejects a segmented send but not the same datagram
	// unsegmented.
	gsoBuf  []byte
	gathers int
	gsoCmsg []byte
	gsoOff  bool

	// UDP GRO scratch (the receive direction of a transport's own
	// socket only): set once enableGRO's socket option took, and one
	// control buffer per recvmmsg slot for the segment size the kernel
	// reports with each coalesced run.
	gro   bool
	cmsgs []byte

	// The one callback this direction hands to RawConn.Read/Write,
	// built on first use: a closure per call would go to the heap,
	// with everything it captures, once per batch. The system call's
	// number and arguments go in through the fields, its result and
	// error come back through them, and waited says whether the call
	// found the socket not ready first and parked on the poller.
	call   func(fd uintptr) bool
	trap   uintptr
	msg    unsafe.Pointer // the msghdr, or the first mmsghdr
	a2, a3 uintptr
	n      int
	errno  syscall.Errno
	waited bool
}

// do issues one non-blocking system call on the socket through park
// (the RawConn's Read or Write, which waits on the runtime poller
// whenever the call would block) and returns its result.
func (st *batchState) do(park func(func(fd uintptr) bool) error, trap uintptr, msg unsafe.Pointer, a2, a3 uintptr) (int, error) {
	if st.call == nil {
		st.call = func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(st.trap, fd, uintptr(st.msg), st.a2, st.a3, 0, 0)
			if e == syscall.EAGAIN || e == syscall.EINTR {
				st.waited = true
				return false // park on the poller until ready
			}
			st.n, st.errno = int(r), e
			return true
		}
	}
	st.trap, st.msg, st.a2, st.a3 = trap, msg, a2, a3
	st.waited = false
	err := park(st.call)
	st.msg = nil
	if err != nil {
		return 0, err
	}
	if st.errno != 0 {
		return 0, st.errno
	}
	return st.n, nil
}

func (st *batchState) grow(n int) {
	if cap(st.hdrs) < n {
		st.hdrs = make([]mmsghdr, n)
		st.iovs = make([]syscall.Iovec, n)
		st.sas = make([]syscall.RawSockaddrInet4, n)
	}
	st.hdrs = st.hdrs[:n]
	st.iovs = st.iovs[:n]
	st.sas = st.sas[:n]
}

// prepare points slot i's iovec at the payload and its msghdr at the
// slot sockaddr.
func (st *batchState) prepare(i int, payload []byte) {
	iov := &st.iovs[i]
	if len(payload) > 0 {
		iov.Base = &payload[0]
	} else {
		iov.Base = nil
	}
	iov.SetLen(len(payload))
	h := &st.hdrs[i]
	h.hdr = syscall.Msghdr{
		Name:    (*byte)(unsafe.Pointer(&st.sas[i])),
		Namelen: uint32(unsafe.Sizeof(st.sas[i])),
		Iov:     iov,
	}
	h.hdr.Iovlen = 1 // untyped 1: the field's width varies by arch
	h.n = 0
}

// setSockaddr fills slot i's sockaddr from ap. RawSockaddrInet4.Port
// is in network byte order; going through bytes keeps this
// host-endianness-independent.
func (st *batchState) setSockaddr(i int, ap netip.AddrPort) {
	sa := &st.sas[i]
	*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ap.Addr().Unmap().As4()}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	port := ap.Port()
	p[0], p[1] = byte(port>>8), byte(port)
}

// addrPort reads slot i's sockaddr back as a netip.AddrPort.
func (st *batchState) addrPort(i int) netip.AddrPort {
	sa := &st.sas[i]
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
}

// UDP generic segmentation offload (UDP_SEGMENT, Linux 4.18+): a run
// of consecutive datagrams to one destination with one segment size
// is handed to the kernel as a single super-datagram plus the segment
// size in a control message, and the kernel splits it only after the
// send path has run once. Relaying an application stream produces
// exactly such runs, and one traversal of the UDP send stack per run
// is worth far more than the syscall entries sendmmsg saves.
const (
	udpSegment  = 103 // UDP_SEGMENT cmsg type (not in the frozen syscall package)
	gsoMinRun   = 2
	gsoMaxSegs  = 64       // UDP_MAX_SEGMENTS
	gsoMaxBytes = arenaMax // stay under the UDP payload ceiling
)

// gsoRun reports where the GSO-eligible run starting at i ends: same
// destination, equal-size payloads, with one trailing shorter
// datagram allowed (GSO's last-segment rule) — shorter, not empty: an
// empty payload adds no segment to the super-datagram, so it would
// never be sent.
func gsoRun(ms []Datagram, i int) int {
	seg := len(ms[i].Payload)
	if seg == 0 {
		return i + 1
	}
	total := seg
	j := i + 1
	for j < len(ms) && j-i < gsoMaxSegs && ms[j].Addr == ms[i].Addr {
		n := len(ms[j].Payload)
		if n == 0 || n > seg || total+n > gsoMaxBytes {
			break
		}
		total += n
		j++
		if n < seg {
			break // a short datagram must be the run's final segment
		}
	}
	return j
}

// gsoUnsupported reports whether the error may mean this kernel (or
// socket) cannot do segmented sends at all, as opposed to a transient
// send failure; WriteBatch checks which before it gives GSO up.
func gsoUnsupported(err error) bool {
	return err == syscall.EINVAL || err == syscall.EOPNOTSUPP || err == syscall.ENOPROTOOPT
}

// contiguous returns run's payloads as the one slice they are when they
// lie back to back in one array, which is how a conn's send arena holds
// what was queued on it; ok is false for anything else, such as the
// caller-owned payloads of an exported WriteBatch. Only capacity says
// that two slices share an array, so a payload cut short of its
// successor does not count.
func contiguous(run []Datagram) (whole []byte, ok bool) {
	first, n := run[0].Payload, 0
	for i := range run {
		p := run[i].Payload
		if n+len(p) > cap(first) || &first[:n+1][n] != &p[0] {
			return nil, false
		}
		n += len(p)
	}
	return first[:n], true
}

// sendGSO transmits one same-destination run as a single segmented
// sendmsg(2), from where it lies when that is one piece of memory and
// gathered into gsoBuf first when it is not.
func (bc *BatchConn) sendGSO(run []Datagram) error {
	st := &bc.send
	seg := len(run[0].Payload)
	buf, ok := contiguous(run)
	if !ok {
		st.gathers++
		buf = st.gsoBuf[:0]
		for i := range run {
			buf = append(buf, run[i].Payload...)
		}
		st.gsoBuf = buf
	}
	if len(st.gsoCmsg) == 0 {
		st.gsoCmsg = make([]byte, syscall.CmsgSpace(2))
	}
	ch := (*syscall.Cmsghdr)(unsafe.Pointer(&st.gsoCmsg[0]))
	ch.Level = syscall.IPPROTO_UDP
	ch.Type = udpSegment
	ch.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&st.gsoCmsg[syscall.CmsgLen(0)])) = uint16(seg)

	st.grow(1)
	st.setSockaddr(0, run[0].Addr)
	st.prepare(0, buf)
	h := &st.hdrs[0].hdr
	h.Control = &st.gsoCmsg[0]
	h.SetControllen(len(st.gsoCmsg))

	_, err := st.do(bc.rc.Write, sysSENDMSG, unsafe.Pointer(h), syscall.MSG_DONTWAIT, 0)
	return err
}

// WriteBatch sends all datagrams: same-destination runs as one
// segmented send each (UDP GSO), everything else batched into as few
// sendmmsg(2) calls as the kernel accepts. It returns the number of
// datagrams sent and the first error encountered: on an error, ms[n]
// is where it stopped, and nothing from there on was sent.
func (bc *BatchConn) WriteBatch(ms []Datagram) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if bc.send.gsoOff {
		return bc.sendMMsg(ms)
	}
	sent := 0
	plain := 0 // start of the pending non-GSO span
	for i := 0; i < len(ms); {
		j := gsoRun(ms, i)
		if j-i < gsoMinRun {
			i = j
			continue
		}
		if plain < i {
			n, err := bc.sendMMsg(ms[plain:i])
			sent += n
			if err != nil {
				return sent, err
			}
		}
		if err := bc.sendGSO(ms[i:j]); err != nil {
			if !gsoUnsupported(err) {
				return sent, err
			}
			// Nothing of the run went out. A destination the kernel
			// refuses (port 0) fails with the same EINVAL as a kernel
			// that cannot segment: the run's first datagram sent on its
			// own tells the two apart. If it fails too, it is the
			// refused one; if not, replay the rest unsegmented and never
			// try GSO here again.
			if _, err := bc.sendMMsg(ms[i : i+1]); err != nil {
				return sent, err
			}
			bc.send.gsoOff = true
			n, merr := bc.sendMMsg(ms[i+1:])
			return sent + 1 + n, merr
		}
		sent += j - i
		plain, i = j, j
	}
	if plain < len(ms) {
		n, err := bc.sendMMsg(ms[plain:])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// sendMMsg sends the datagrams with sendmmsg(2), one iovec per
// datagram.
func (bc *BatchConn) sendMMsg(ms []Datagram) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	st := &bc.send
	st.grow(len(ms))
	for i := range ms {
		st.setSockaddr(i, ms[i].Addr)
		st.prepare(i, ms[i].Payload)
	}
	sent := 0
	for sent < len(ms) {
		n, err := st.do(bc.rc.Write, sysSENDMMSG, unsafe.Pointer(&st.hdrs[sent]),
			uintptr(len(ms)-sent), syscall.MSG_DONTWAIT)
		if err != nil {
			return sent, err
		}
		if n <= 0 {
			break
		}
		sent += n
	}
	return sent, nil
}

// UDP generic receive offload (UDP_GRO, Linux 5.0+), the receive-side
// twin of UDP_SEGMENT: a socket that opts in is handed a run of
// equal-size datagrams from one source — a GSO super-datagram that
// crossed loopback whole, or what the NIC's GRO merged — as one
// buffer plus the segment size in a control message, instead of the
// kernel splitting the run and queueing, then copying out, every
// datagram on its own.
const udpGRO = 104 // UDP_GRO socket option and cmsg type

// groCmsgSpace is one slot's control buffer: room for the UDP_GRO
// cmsg (an int) and nothing else, so anything more shows as MSG_CTRUNC.
var groCmsgSpace = syscall.CmsgSpace(4)

// enableGRO opts the socket into coalesced receives. Only the
// transport's read loop calls it, before its first readBatch and
// always passing segs from then on; a BatchConn from NewBatchConn
// never coalesces. A kernel that refuses the option leaves the flag
// off and the socket on the one-datagram-per-slot path.
func (bc *BatchConn) enableGRO() {
	bc.rc.Control(func(fd uintptr) {
		bc.recv.gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	})
}

// parseGRO reads what recvmsg reported beside a slot's n payload
// bytes on a GRO socket: the segment size the payload divides into
// (n itself when the slot holds a single datagram), and whether the
// slot can be trusted at all. A truncated payload ends in a partial
// segment that would pass for a short datagram, and truncated control
// data may have lost the segment size, so neither is delivered; the
// same goes for a segment size no kernel sends.
func parseGRO(control []byte, flags int32, n int) (seg int, ok bool) {
	if flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0 {
		return 0, false
	}
	for len(control) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&control[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(control) {
			return 0, false
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && l >= syscall.CmsgLen(4) {
			seg = int(*(*int32)(unsafe.Pointer(&control[syscall.CmsgLen(0)])))
			if seg <= 0 {
				return 0, false
			}
			return min(seg, n), true
		}
		control = control[min(syscall.CmsgSpace(l-syscall.CmsgLen(0)), len(control)):]
	}
	return n, true
}

// ReadBatch receives up to len(ms) datagrams in one recvmmsg(2) call,
// blocking (on the runtime poller) until at least one arrives. Filled
// entries get Addr set and Payload re-sliced to the received length,
// one datagram per entry.
func (bc *BatchConn) ReadBatch(ms []Datagram) (int, error) {
	n, _, err := bc.readBatch(ms, nil)
	return n, err
}

// readBatch is the one receive routine. On a socket with GRO on, a
// filled entry may hold a coalesced run: segs[i] is the size its
// payload divides into (the last segment may be shorter), and slots
// parseGRO rejects are dropped as loss — swapped out of ms[:n], so
// every entry keeps a buffer of its own, and n may then be 0. With GRO
// off (never asked for, or refused) segs[i] is the payload's length.
// waited reports whether recvmmsg found nothing queued on its first try
// and the read parked on the poller: a read that did not wait found a
// backlog.
func (bc *BatchConn) readBatch(ms []Datagram, segs []int) (n int, waited bool, err error) {
	if len(ms) == 0 {
		return 0, false, nil
	}
	st := &bc.recv
	st.grow(len(ms))
	if st.gro && len(st.cmsgs) < len(ms)*groCmsgSpace {
		st.cmsgs = make([]byte, len(ms)*groCmsgSpace)
	}
	for i := range ms {
		st.prepare(i, ms[i].Payload)
		if st.gro {
			h := &st.hdrs[i].hdr
			h.Control = &st.cmsgs[i*groCmsgSpace]
			h.SetControllen(groCmsgSpace)
		}
	}
	n, err = st.do(bc.rc.Read, sysRECVMMSG, unsafe.Pointer(&st.hdrs[0]),
		uintptr(len(ms)), syscall.MSG_DONTWAIT)
	if err != nil {
		return 0, false, err
	}
	k := 0
	for i := 0; i < n; i++ {
		h := &st.hdrs[i]
		seg := int(h.n)
		if st.gro {
			var ok bool
			c := st.cmsgs[i*groCmsgSpace:][:h.hdr.Controllen]
			if seg, ok = parseGRO(c, h.hdr.Flags, seg); !ok {
				continue
			}
		}
		ms[k], ms[i] = ms[i], ms[k]
		ms[k].Addr = st.addrPort(i)
		ms[k].Payload = ms[k].Payload[:h.n]
		if segs != nil {
			segs[k] = seg
		}
		k++
	}
	return k, st.waited, nil
}
