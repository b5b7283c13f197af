// Command natcheck runs the reproduced NAT Check tool (§6.1) against
// a configurable simulated NAT and prints the report the paper's
// volunteers would have submitted.
//
// Usage:
//
//	go run ./cmd/natcheck -preset well-behaved
//	go run ./cmd/natcheck -mapping symmetric -refusal rst -hairpin-udp
package main

import (
	"flag"
	"fmt"
	"os"

	"natpunch/internal/nat"
	"natpunch/internal/natcheck"
)

func main() {
	preset := flag.String("preset", "", "behavior preset: well-behaved|cone|full-cone|restricted-cone|symmetric|symmetric-random|cone-rst|mangler")
	mapping := flag.String("mapping", "cone", "mapping policy: cone|address|symmetric")
	filtering := flag.String("filtering", "port", "filtering policy: none|address|port")
	refusal := flag.String("refusal", "drop", "unsolicited TCP SYN response: drop|rst|icmp")
	hairpinUDP := flag.Bool("hairpin-udp", false, "enable UDP hairpin translation")
	hairpinTCP := flag.Bool("hairpin-tcp", false, "enable TCP hairpin translation")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var behavior nat.Behavior
	if *preset != "" {
		presets := map[string]func() nat.Behavior{
			"well-behaved": nat.WellBehaved, "cone": nat.Cone, "full-cone": nat.FullCone,
			"restricted-cone": nat.RestrictedCone, "symmetric": nat.Symmetric,
			"symmetric-random": nat.SymmetricRandom, "cone-rst": nat.RSTCone, "mangler": nat.Mangler,
		}
		f, ok := presets[*preset]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
			os.Exit(1)
		}
		behavior = f()
	} else {
		behavior = nat.Behavior{Label: "custom", PortAlloc: nat.PortSequential}
		switch *mapping {
		case "cone":
			behavior.Mapping = nat.MappingEndpointIndependent
		case "address":
			behavior.Mapping = nat.MappingAddressDependent
		case "symmetric":
			behavior.Mapping = nat.MappingAddressPortDependent
		default:
			fmt.Fprintf(os.Stderr, "unknown mapping %q\n", *mapping)
			os.Exit(1)
		}
		switch *filtering {
		case "none":
			behavior.Filtering = nat.FilterEndpointIndependent
		case "address":
			behavior.Filtering = nat.FilterAddressDependent
		case "port":
			behavior.Filtering = nat.FilterAddressPortDependent
		default:
			fmt.Fprintf(os.Stderr, "unknown filtering %q\n", *filtering)
			os.Exit(1)
		}
		switch *refusal {
		case "drop":
			behavior.TCPRefusal = nat.RefuseDrop
		case "rst":
			behavior.TCPRefusal = nat.RefuseRST
		case "icmp":
			behavior.TCPRefusal = nat.RefuseICMP
		default:
			fmt.Fprintf(os.Stderr, "unknown refusal %q\n", *refusal)
			os.Exit(1)
		}
		behavior.HairpinUDP = *hairpinUDP
		behavior.HairpinTCP = *hairpinTCP
	}

	lab, err := natcheck.NewLab(*seed, behavior)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report, ok := lab.Run()
	if !ok {
		fmt.Fprintln(os.Stderr, "natcheck: check did not complete")
		os.Exit(1)
	}

	fmt.Printf("NAT under test: %s\n\n", behavior)
	fmt.Printf("UDP:\n")
	fmt.Printf("  responded:            %v\n", report.UDPResponded)
	fmt.Printf("  public endpoint (s1): %v\n", report.UDPPublic1)
	fmt.Printf("  public endpoint (s2): %v\n", report.UDPPublic2)
	fmt.Printf("  consistent mapping:   %v\n", report.UDPConsistent)
	fmt.Printf("  filters unsolicited:  %v\n", report.UDPFilters)
	fmt.Printf("  hairpin:              %v\n", report.UDPHairpin)
	fmt.Printf("TCP:\n")
	fmt.Printf("  responded:            %v\n", report.TCPResponded)
	fmt.Printf("  consistent mapping:   %v\n", report.TCPConsistent)
	fmt.Printf("  unsolicited SYN:      %v\n", report.SYNBehavior)
	fmt.Printf("  connect to server 3:  %v\n", report.TCPConnS3OK)
	fmt.Printf("  hairpin:              %v\n", report.TCPHairpin)
	fmt.Printf("\nverdict: UDP hole punching %s, TCP hole punching %s\n",
		supported(report.SupportsUDPPunch()), supported(report.SupportsTCPPunch()))
}

func supported(b bool) string {
	if b {
		return "SUPPORTED"
	}
	return "NOT SUPPORTED"
}
