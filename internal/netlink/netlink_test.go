package netlink

import (
	"fmt"
	"sync"
	"testing"
)

func TestAttach(t *testing.T) {
	f := NewFabric()
	if _, err := f.Attach("a"); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if _, err := f.Attach("a"); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := f.Attach(""); err == nil {
		t.Error("empty address accepted")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("client")
	_, _ = f.Attach("server")
	id, err := f.Dial("client", "server")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(id, []byte("ping"), Reliable); err != nil {
		t.Fatal(err)
	}
	msgs, err := f.Recv("server")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("recv: %v, %v", msgs, err)
	}
	if string(msgs[0].Payload) != "ping" || msgs[0].From != "client" || msgs[0].ConnID != id {
		t.Errorf("msg = %+v", msgs[0])
	}
	// Inbox drained.
	again, _ := f.Recv("server")
	if len(again) != 0 {
		t.Error("inbox not drained")
	}
}

func TestDialErrors(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("a")
	if _, err := f.Dial("a", "ghost"); err == nil {
		t.Error("dial to unknown server accepted")
	}
	if _, err := f.Dial("ghost", "a"); err == nil {
		t.Error("dial from unknown client accepted")
	}
	if err := f.Send(99, nil, Reliable); err == nil {
		t.Error("send on unknown connection accepted")
	}
}

func TestQoSLatency(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("c")
	_, _ = f.Attach("s")
	id, _ := f.Dial("c", "s")
	payload := make([]byte, 1000)
	_ = f.Send(id, payload, Reliable)
	_ = f.Send(id, payload, Fast)
	msgs, _ := f.Recv("s")
	if len(msgs) != 2 {
		t.Fatal("lost messages")
	}
	if msgs[1].LatencyS >= msgs[0].LatencyS {
		t.Errorf("fast path (%v) not faster than reliable (%v)", msgs[1].LatencyS, msgs[0].LatencyS)
	}
	// Serialization included: bigger payloads take longer on both paths.
	_ = f.Send(id, make([]byte, 1e6), Fast)
	big, _ := f.Recv("s")
	if big[0].LatencyS <= msgs[1].LatencyS {
		t.Error("payload size not charged")
	}
}

func TestServerSideMigration(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("client")
	_, _ = f.Attach("edge-1")
	_, _ = f.Attach("edge-2")
	id, _ := f.Dial("client", "edge-1")
	_ = f.Send(id, []byte("before"), Reliable)

	if err := f.BeginMigration(id); err != nil {
		t.Fatal(err)
	}
	if err := f.BeginMigration(id); err == nil {
		t.Error("double begin accepted")
	}
	// Client keeps sending during migration: buffered, not lost.
	_ = f.Send(id, []byte("during-1"), Reliable)
	_ = f.Send(id, []byte("during-2"), Fast)

	rep, err := f.CompleteMigration(id, "edge-2", 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "edge-1" || rep.To != "edge-2" {
		t.Errorf("report = %+v", rep)
	}
	if rep.FlushedMessages != 2 {
		t.Errorf("flushed = %d, want 2", rep.FlushedMessages)
	}
	if rep.DowntimeS <= 0 {
		t.Error("zero downtime for 5 MB state transfer")
	}

	// Connection ID unchanged; messages flow to the new address.
	if srv, _ := f.ServerOf(id); srv != "edge-2" {
		t.Errorf("server = %s", srv)
	}
	_ = f.Send(id, []byte("after"), Reliable)
	msgs, _ := f.Recv("edge-2")
	if len(msgs) != 3 { // during-1, during-2, after
		t.Fatalf("edge-2 got %d messages", len(msgs))
	}
	if string(msgs[0].Payload) != "during-1" || string(msgs[2].Payload) != "after" {
		t.Errorf("message order: %q, %q, %q", msgs[0].Payload, msgs[1].Payload, msgs[2].Payload)
	}
	old, _ := f.Recv("edge-1")
	if len(old) != 1 || string(old[0].Payload) != "before" {
		t.Errorf("edge-1 inbox = %+v", old)
	}
}

func TestMigrationErrors(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("c")
	_, _ = f.Attach("s")
	id, _ := f.Dial("c", "s")
	if _, err := f.CompleteMigration(id, "s", 0); err == nil {
		t.Error("complete without begin accepted")
	}
	_ = f.BeginMigration(id)
	if _, err := f.CompleteMigration(id, "ghost", 0); err == nil {
		t.Error("migration to unknown endpoint accepted")
	}
	if _, err := f.CompleteMigration(id, "s", -1); err == nil {
		t.Error("negative state size accepted")
	}
	if err := f.BeginMigration(404); err == nil {
		t.Error("begin on unknown connection accepted")
	}
}

func TestZeroLossAccounting(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("c")
	_, _ = f.Attach("s1")
	_, _ = f.Attach("s2")
	id, _ := f.Dial("c", "s1")
	_ = f.BeginMigration(id)
	for i := 0; i < 10; i++ {
		_ = f.Send(id, []byte{byte(i)}, Reliable)
	}
	rep, _ := f.CompleteMigration(id, "s2", 0)
	if rep.FlushedMessages != 10 {
		t.Errorf("flushed = %d", rep.FlushedMessages)
	}
	delivered, dropped, buffered := f.Stats()
	if dropped != 0 {
		t.Errorf("dropped = %d, migration must be lossless", dropped)
	}
	if buffered != 10 || delivered != 10 {
		t.Errorf("buffered = %d delivered = %d", buffered, delivered)
	}
}

func TestConcurrentSendsSafe(t *testing.T) {
	f := NewFabric()
	_, _ = f.Attach("c")
	_, _ = f.Attach("s")
	id, _ := f.Dial("c", "s")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = f.Send(id, []byte(fmt.Sprintf("%d-%d", i, j)), Reliable)
			}
		}(i)
	}
	wg.Wait()
	msgs, _ := f.Recv("s")
	if len(msgs) != 800 {
		t.Errorf("got %d messages, want 800", len(msgs))
	}
}
