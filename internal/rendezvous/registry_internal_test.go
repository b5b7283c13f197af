package rendezvous

import (
	"fmt"
	"testing"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/sim"
)

func TestRegistryTTLBasics(t *testing.T) {
	ep1 := inet.MustParseEndpoint("18.181.0.31:1234")
	ep2 := inet.MustParseEndpoint("18.181.0.32:1234")
	reg := registry{recs: make(map[string]Record)}
	reg.put(Record{Name: "a", Public: ep1, ExpiresAt: 100}, 0)
	if _, ok := reg.get("a", 99); !ok {
		t.Fatal("live record missing")
	}
	if _, ok := reg.get("a", 101); ok {
		t.Fatal("expired record returned")
	}
	if _, ok := reg.get("a", 99); ok {
		t.Fatal("expired record not evicted on first miss")
	}

	reg.put(Record{Name: "b", Public: ep1, ExpiresAt: 100}, 0)
	if rec, ok := reg.touch("b", ep2, 200, 99); !ok || rec.ExpiresAt != 200 || rec.Public != ep2 {
		t.Fatalf("touch on live record: %+v ok=%v", rec, ok)
	}
	rec, ok := reg.get("b", 150)
	if !ok || rec.ExpiresAt != 200 || rec.Public != ep2 {
		t.Fatalf("touch did not refresh: %+v ok=%v", rec, ok)
	}
	if _, ok := reg.touch("b", ep1, 300, 250); ok {
		t.Fatal("touch revived an expired record")
	}
	if n := len(reg.recs); n != 0 {
		t.Fatalf("%d records left, want 0", n)
	}
}

// TestExpiredRegistrationsReclaimed floods a simulated server with
// names that then go silent: once fresh names double the table, the
// silent ones are swept even though nobody ever looks them up again.
func TestExpiredRegistrationsReclaimed(t *testing.T) {
	const ttl = 10 * time.Second
	const flood, live = 10000, 10000
	n := sim.NewNetwork(1)
	core := n.NewSegment("core", "0.0.0.0/0", 5*time.Millisecond)
	sh := host.New(n, "S", host.BSDStyle)
	sh.Attach(core, inet.MustParseAddr("18.181.0.31"))
	s, err := Serve(sh.Transport(), Config{TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ch := host.New(n, "flooder", host.BSDStyle)
	ch.Attach(core, inet.MustParseAddr("155.99.25.11"))
	sock, err := ch.Transport().BindUDP(62000)
	if err != nil {
		t.Fatal(err)
	}
	register := func(prefix string, count int) {
		for i := 0; i < count; i++ {
			sock.SendTo(s.Endpoint(), proto.Encode(&proto.Message{
				Type: proto.TypeRegister, From: fmt.Sprintf("%s-%d", prefix, i),
			}, 0))
		}
		n.Sched.Run()
	}

	register("flood", flood)
	if got := len(s.reg.recs); got != flood {
		t.Fatalf("%d records after the flood, want %d", got, flood)
	}
	n.Sched.RunFor(ttl + time.Second)
	register("live", live)
	if got := len(s.reg.recs); got > live+sweepFloor {
		t.Fatalf("%d records held for %d live names: the silent flood stayed resident", got, live)
	}
	for i := 0; i < live; i++ {
		if name := fmt.Sprintf("live-%d", i); !s.Registered(name) {
			t.Fatalf("%s lost", name)
		}
	}
}
