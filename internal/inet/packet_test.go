package inet

import (
	"strings"
	"testing"
)

func TestTCPFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagRST) {
		t.Error("flag membership wrong")
	}
	if f.String() != "SYN|ACK" {
		t.Errorf("String() = %q", f.String())
	}
	if TCPFlags(0).String() != "none" {
		t.Errorf("zero flags String() = %q", TCPFlags(0).String())
	}
	all := FlagSYN | FlagACK | FlagFIN | FlagRST
	for _, want := range []string{"SYN", "ACK", "FIN", "RST"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("all-flags string missing %s: %q", want, all.String())
		}
	}
}

func TestPacketSession(t *testing.T) {
	p := &Packet{Proto: UDP, Src: EP("1.1.1.1", 1), Dst: EP("2.2.2.2", 2)}
	s := p.Session()
	if s.Local != p.Src || s.Remote != p.Dst {
		t.Errorf("Session() = %v", s)
	}
}

func TestPacketString(t *testing.T) {
	udp := &Packet{Proto: UDP, Src: EP("10.0.0.1", 4321), Dst: EP("18.181.0.31", 1234), Payload: []byte("abc")}
	if got := udp.String(); !strings.Contains(got, "UDP") || !strings.Contains(got, "len=3") {
		t.Errorf("udp String() = %q", got)
	}
	tcp := &Packet{Proto: TCP, Flags: FlagSYN, Seq: 7}
	if got := tcp.String(); !strings.Contains(got, "SYN") || !strings.Contains(got, "seq=7") {
		t.Errorf("tcp String() = %q", got)
	}
	icmp := &Packet{Proto: ICMP, ICMP: ICMPHostUnreachable}
	if got := icmp.String(); !strings.Contains(got, "host-unreachable") {
		t.Errorf("icmp String() = %q", got)
	}
}

func TestProtoAndICMPStrings(t *testing.T) {
	if UDP.String() != "UDP" || TCP.String() != "TCP" || ICMP.String() != "ICMP" {
		t.Error("proto names wrong")
	}
	if !strings.Contains(Proto(99).String(), "99") {
		t.Error("unknown proto should include number")
	}
	names := map[ICMPType]string{
		ICMPHostUnreachable: "host-unreachable",
		ICMPPortUnreachable: "port-unreachable",
		ICMPAdminProhibited: "admin-prohibited",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}
