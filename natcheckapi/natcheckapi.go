// Package natcheckapi exposes the reproduced NAT Check measurement
// tool (§6.1 of the paper) through a public surface: pick a device
// from the Table 1 vendor populations (or a behavior profile by
// name), run the three-server check against it in a fresh simulated
// world, and read off what a survey volunteer would have submitted.
package natcheckapi

import (
	"fmt"

	"natpunch/internal/natcheck"
	"natpunch/internal/vendors"
)

// Result is NAT Check's outcome for one device, mirroring the Table 1
// columns.
type Result struct {
	Vendor   string
	Device   int
	Behavior string

	// UDP results (§6.1.1).
	UDPConsistent bool // consistent translation, the §5.1 precondition
	UDPFilters    bool // unsolicited UDP was filtered
	UDPHairpin    bool
	UDPPunch      bool // §6.2 criterion

	// TCP results (§6.1.2).
	TCPConsistent bool
	SYNBehavior   string // what happened to the unsolicited SYN
	TCPHairpin    bool
	TCPPunch      bool // §6.2 criterion
}

// Vendors lists the Table 1 vendor names.
func Vendors() []string {
	names := make([]string, len(vendors.Table1))
	for i, row := range vendors.Table1 {
		names[i] = row.Name
	}
	return names
}

// DeviceCount returns how many simulated devices the named vendor's
// Table 1 row expands into (0 for unknown vendors).
func DeviceCount(vendor string) int {
	for _, row := range vendors.Table1 {
		if row.Name == vendor {
			return len(vendors.Devices(row))
		}
	}
	return 0
}

// CheckDevice runs NAT Check against device index of the named
// Table 1 vendor, in a fresh world derived from seed.
func CheckDevice(vendor string, index int, seed int64) (Result, error) {
	for _, row := range vendors.Table1 {
		if row.Name != vendor {
			continue
		}
		devs := vendors.Devices(row)
		if index < 0 || index >= len(devs) {
			return Result{}, fmt.Errorf("natcheckapi: %s has no device %d", vendor, index)
		}
		dev := devs[index]
		r, err := run(dev, seed)
		if err != nil {
			return Result{}, err
		}
		r.Vendor = vendor
		r.Device = dev.Index
		r.Behavior = dev.Behavior.String()
		return r, nil
	}
	return Result{}, fmt.Errorf("natcheckapi: unknown vendor %q", vendor)
}

// run places the device under test in natcheck's three-server lab
// and runs the check to completion. The world derives from (seed,
// device) so seed sweeps genuinely vary the run.
func run(dev vendors.Device, seed int64) (Result, error) {
	lab, err := natcheck.NewLab(seed+int64(dev.Index), dev.Behavior)
	if err != nil {
		return Result{}, err
	}
	report, ok := lab.Run()
	if !ok {
		return Result{}, fmt.Errorf("natcheckapi: check did not complete")
	}
	return Result{
		UDPConsistent: report.UDPConsistent,
		UDPFilters:    report.UDPFilters,
		UDPHairpin:    report.UDPHairpin,
		UDPPunch:      report.SupportsUDPPunch(),
		TCPConsistent: report.TCPConsistent,
		SYNBehavior:   report.SYNBehavior.String(),
		TCPHairpin:    report.TCPHairpin,
		TCPPunch:      report.SupportsTCPPunch(),
	}, nil
}
