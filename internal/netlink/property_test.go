package netlink

import (
	"fmt"
	"math/rand"
	"testing"
)

// Model-based property test: a reference model tracks what each endpoint's
// inbox must contain after a random sequence of sends, migrations and
// receives. The fabric must agree with the model at
// every Recv.
func TestFabricMatchesReferenceModel(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		f := NewFabric()
		endpoints := []string{"c", "s1", "s2", "s3"}
		for _, ep := range endpoints {
			if _, err := f.Attach(ep); err != nil {
				t.Fatal(err)
			}
		}
		conn, err := f.Dial("c", "s1")
		if err != nil {
			t.Fatal(err)
		}

		// Reference model.
		inbox := map[string][]string{}
		server := "s1"
		migrating := false
		var buffered []string
		seq := 0

		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // send
				payload := fmt.Sprintf("m%d", seq)
				seq++
				if err := f.Send(conn, []byte(payload), Reliable); err != nil {
					t.Fatalf("trial %d op %d: send: %v", trial, op, err)
				}
				if migrating {
					buffered = append(buffered, payload)
				} else {
					inbox[server] = append(inbox[server], payload)
				}
			case 3: // migration step
				if !migrating {
					if err := f.BeginMigration(conn); err != nil {
						t.Fatalf("begin: %v", err)
					}
					migrating = true
				} else {
					target := endpoints[1+rng.Intn(3)]
					if _, err := f.CompleteMigration(conn, target, float64(rng.Intn(1000))); err != nil {
						t.Fatalf("complete: %v", err)
					}
					server = target
					inbox[server] = append(inbox[server], buffered...)
					buffered = nil
					migrating = false
				}
			case 4: // recv and compare against the model
				ep := endpoints[rng.Intn(len(endpoints))]
				msgs, err := f.Recv(ep)
				if err != nil {
					t.Fatalf("recv: %v", err)
				}
				want := inbox[ep]
				if len(msgs) != len(want) {
					t.Fatalf("trial %d op %d: endpoint %s has %d messages, model says %d",
						trial, op, ep, len(msgs), len(want))
				}
				for i := range want {
					if string(msgs[i].Payload) != want[i] {
						t.Fatalf("endpoint %s message %d = %q, model says %q",
							ep, i, msgs[i].Payload, want[i])
					}
				}
				inbox[ep] = nil
			}
		}
		// No message may have been dropped.
		_, dropped, _ := f.Stats()
		if dropped != 0 {
			t.Fatalf("trial %d: dropped = %d", trial, dropped)
		}
	}
}
