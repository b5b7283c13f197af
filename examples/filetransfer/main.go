// File transfer example: a bulk reliable stream over a punched UDP
// session. Two peers behind NATs punch a session through the public
// Dialer/Listener/Conn API, open a natpunch/stream
// stream on it, and transfer 256 KiB, verified with a FNV hash; runs
// once on BSD-style hosts and once on Linux-style hosts.
package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"natpunch"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/stream"
)

const fileSize = 256 << 10

func transfer(flavor simnet.OSFlavor) {
	world := simnet.NewWorld(5)
	defer world.Close()
	core := world.Core()
	s := core.AddHost("S", "18.181.0.31")
	server, err := rendezvousapi.Serve(s.Transport(), 1234)
	check(err)
	realmA := core.AddSite("NAT-A", simnet.Cone(), "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", simnet.Cone(), "138.76.29.7", "10.1.1.0/24")
	hostA := realmA.AddHostOS("A", "10.0.0.1", flavor)
	hostB := realmB.AddHostOS("B", "10.1.1.3", flavor)

	sender, err := natpunch.Open(hostA.Transport(), "sender", server.Endpoint(),
		natpunch.WithLocalPort(4321))
	check(err)
	defer sender.Close()
	receiver, err := natpunch.Open(hostB.Transport(), "receiver", server.Endpoint(),
		natpunch.WithLocalPort(4321))
	check(err)
	defer receiver.Close()

	// Deterministic pseudo-file.
	file := make([]byte, fileSize)
	for i := range file {
		file[i] = byte(i*7 + i>>8)
	}
	want := fnv.New64a()
	want.Write(file)

	ln, err := receiver.Listen()
	check(err)
	type summary struct {
		received int
		ok       bool
		path     string
	}
	done := make(chan summary, 1)
	go func() {
		conn, err := ln.AcceptConn()
		check(err)
		sess, err := stream.NewSession(conn)
		check(err)
		defer sess.Close()
		st, err := sess.AcceptStream()
		check(err)
		got := fnv.New64a()
		st.SetReadDeadline(time.Now().Add(60 * time.Second))
		received, _ := io.Copy(got, st)
		done <- summary{int(received), received == fileSize && got.Sum64() == want.Sum64(), conn.Path()}
	}()

	start := world.Now()
	conn, err := sender.Dial("receiver")
	check(err)
	fmt.Printf("  sender:   stream via %s to %v\n", conn.Path(), conn.RemoteAddr())
	sess, err := stream.NewSession(conn)
	check(err)
	defer sess.Close()
	st, err := sess.OpenStream()
	check(err)
	// Send in 8 KiB application chunks.
	for off := 0; off < len(file); off += 8 << 10 {
		_, err := st.Write(file[off:min(off+8<<10, len(file))])
		check(err)
	}
	check(st.CloseWrite())
	sum := <-done
	fmt.Printf("  receiver: stream via %s\n", sum.path)
	fmt.Printf("  %d/%d bytes, hash match: %v, virtual transfer time %v\n",
		sum.received, fileSize, sum.ok, world.Now()-start)
}

func main() {
	fmt.Println("Hole punched file transfer over a reliable stream (256 KiB):")
	fmt.Println("BSD-style hosts:")
	transfer(simnet.BSD)
	fmt.Println("Linux-style hosts:")
	transfer(simnet.Linux)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
