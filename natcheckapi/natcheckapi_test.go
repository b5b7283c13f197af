package natcheckapi

import (
	"slices"
	"testing"

	"natpunch/internal/vendors"
)

func TestVendorsListsTable1InOrder(t *testing.T) {
	var want []string
	for _, row := range vendors.Table1 {
		want = append(want, row.Name)
	}
	if got := Vendors(); !slices.Equal(got, want) {
		t.Fatalf("Vendors() = %v, want %v", got, want)
	}
}

func TestUnknownVendorAndBadIndex(t *testing.T) {
	if n := DeviceCount("Acme"); n != 0 {
		t.Errorf("DeviceCount(unknown) = %d, want 0", n)
	}
	if _, err := CheckDevice("Acme", 0, 1); err == nil {
		t.Error("CheckDevice(unknown vendor) returned no error")
	}
	n := DeviceCount("Linksys")
	for _, index := range []int{-1, n} {
		if _, err := CheckDevice("Linksys", index, 1); err == nil {
			t.Errorf("CheckDevice(Linksys, %d) of %d devices returned no error", index, n)
		}
	}
}

// TestLinksysRowReproducesTable1: checking every device of the Linksys
// row reproduces its UDP-punch cell over DeviceCount devices, and its
// TCP-punch cell over the devices the survey measured TCP on.
func TestLinksysRowReproducesTable1(t *testing.T) {
	row := vendors.Table1[0]
	if row.Name != "Linksys" {
		t.Fatalf("Table 1's first row is %q, want Linksys", row.Name)
	}
	devs := vendors.Devices(row)
	if n := DeviceCount(row.Name); n != row.UDPPunch.Den || n != len(devs) {
		t.Fatalf("DeviceCount = %d, want the UDP-punch denominator %d", n, row.UDPPunch.Den)
	}
	var udp, tcp, tcpDen int
	for i, dev := range devs {
		r, err := CheckDevice(row.Name, i, 1)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if r.Vendor != row.Name || r.Device != i || r.Behavior != dev.Behavior.String() {
			t.Fatalf("device %d: result names %s #%d (%s), want %s #%d (%s)",
				i, r.Vendor, r.Device, r.Behavior, row.Name, i, dev.Behavior)
		}
		if r.UDPPunch {
			udp++
		}
		if dev.MeasuredTCP {
			tcpDen++
			if r.TCPPunch {
				tcp++
			}
		}
	}
	if got := (vendors.Cell{Num: udp, Den: len(devs)}); got != row.UDPPunch {
		t.Errorf("UDP punch %s, Table 1 says %s", got, row.UDPPunch)
	}
	if got := (vendors.Cell{Num: tcp, Den: tcpDen}); got != row.TCPPunch {
		t.Errorf("TCP punch %s, Table 1 says %s", got, row.TCPPunch)
	}
}

func TestCheckDeviceDeterministic(t *testing.T) {
	a, err := CheckDevice("Netgear", 33, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CheckDevice("Netgear", 33, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same (vendor, index, seed) gave %+v then %+v", a, b)
	}
}
