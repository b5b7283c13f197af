package stream_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"natpunch/simnet"
	"natpunch/stream"
)

// simSessions brings a stream session up on both ends of a punched
// path on the simulator.
func simSessions(t *testing.T) (alice, bob *stream.Session) {
	t.Helper()
	return sessions(t, simWorld(t, 42, simnet.Cone(), simnet.Cone(), baseOpts()...))
}

// openWith opens a stream from alice, writes data on it, and returns
// it with bob's end, accepted once the bytes announce it.
func openWith(t *testing.T, alice, bob *stream.Session, data []byte) (a, b *stream.Stream) {
	t.Helper()
	a, err := alice.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	a.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := a.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if b, err = bob.AcceptStream(); err != nil {
		t.Fatalf("accept: %v", err)
	}
	b.SetReadDeadline(time.Now().Add(30 * time.Second))
	return a, b
}

// TestStreamReadDeadline: a Read with nothing to read returns
// os.ErrDeadlineExceeded once the read deadline passes, not before.
func TestStreamReadDeadline(t *testing.T) {
	alice, _ := simSessions(t)
	st, err := alice.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	const wait = 100 * time.Millisecond
	start := time.Now()
	st.SetReadDeadline(start.Add(wait))
	n, err := st.Read(make([]byte, 16))
	if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past the deadline = %d, %v; want 0, os.ErrDeadlineExceeded", n, err)
	}
	if took := time.Since(start); took < wait {
		t.Errorf("Read returned after %v, before its %v deadline", took, wait)
	}
	// The deadline stands: the next Read fails at once.
	if _, err := st.Read(make([]byte, 16)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("second Read = %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestStreamCloseDrainsToPeer: Close ends the local read side at once
// (net.ErrClosed) while the write side still flushes: the peer reads
// every byte written before Close, then io.EOF, and neither end
// reports an error.
func TestStreamCloseDrainsToPeer(t *testing.T) {
	alice, bob := simSessions(t)
	want := pattern(256 << 10)
	a, b := openWith(t, alice, bob, want)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(make([]byte, 16)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Read after Close = %v, want net.ErrClosed", err)
	}
	if _, err := a.Write([]byte("late")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Write after Close = %v, want net.ErrClosed", err)
	}
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("peer read: %v after %d bytes", err, len(got))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer read %d bytes, want the %d written", len(got), len(want))
	}
	if err := a.Err(); err != nil {
		t.Errorf("closing end Err() = %v, want nil", err)
	}
	if err := b.Err(); err != nil {
		t.Errorf("peer Err() = %v, want nil", err)
	}
}

// TestStreamResetFailsPeer: after Reset the peer's Read fails with
// the reset, not io.EOF, and its Err() reports it.
func TestStreamResetFailsPeer(t *testing.T) {
	alice, bob := simSessions(t)
	a, b := openWith(t, alice, bob, []byte("hello"))
	if _, err := io.ReadFull(b, make([]byte, 5)); err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if err := a.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(make([]byte, 16)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Read after Reset = %v, want net.ErrClosed", err)
	}
	_, err := b.Read(make([]byte, 16))
	if err == nil || err == io.EOF || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("peer Read after Reset = %v, want the reset error", err)
	}
	if b.Err() == nil {
		t.Error("peer Err() = nil after Reset")
	}
}
