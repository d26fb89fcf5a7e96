// Package netlink implements the network-abstraction substrate covering
// three surveyed tools: Nethuns' socket-independent message primitives,
// INSANE's differentiated-QoS paths, and MoveQUIC's server-side connection
// migration (Sections 2.2 and 2.4 of the paper).
//
// The fabric is an in-memory message network with explicit, simulated
// latency accounting (no wall-clock sleeps — deterministic tests). Its key
// property, borrowed from QUIC, is that connections are identified by
// connection IDs rather than endpoint addresses, which is precisely what
// makes live server-side migration transparent to clients.
package netlink

import (
	"errors"
	"fmt"
	"sync"
)

// QoSClass selects a delivery path, mirroring INSANE's differentiated
// quality levels.
type QoSClass int

// The supported QoS classes.
const (
	// Reliable is the default path: higher latency, no loss.
	Reliable QoSClass = iota
	// Fast is the low-latency path (kernel-bypass style): latency is
	// divided by the fabric's FastFactor.
	Fast
)

// Message is one delivered datagram.
type Message struct {
	From    string
	ConnID  uint64
	Payload []byte
	QoS     QoSClass
	// LatencyS is the simulated one-way delivery latency.
	LatencyS float64
}

// Endpoint is a named attachment point with an inbox.
type Endpoint struct {
	inbox []Message
}

// Fabric is the in-memory network.
type Fabric struct {
	mu sync.Mutex

	endpoints map[string]*Endpoint
	// conns maps connection IDs to the *current* server address — the QUIC
	// trick enabling migration.
	conns  map[uint64]*conn
	nextID uint64

	// BaseLatencyS is the Reliable-path one-way latency between distinct
	// endpoints (same-endpoint delivery is free).
	BaseLatencyS float64
	// FastFactor divides latency on the Fast path (>= 1).
	FastFactor float64
	// BandwidthBps models payload serialization time.
	BandwidthBps float64

	// Stats.
	delivered int
	dropped   int
	buffered  int
}

type conn struct {
	id        uint64
	client    string
	server    string
	migrating bool
	buf       []Message // held during migration, flushed on completion
}

// NewFabric returns a fabric with edge-like defaults: 10 ms reliable
// latency, 4× fast-path speedup, 100 MB/s.
func NewFabric() *Fabric {
	return &Fabric{
		endpoints:    map[string]*Endpoint{},
		conns:        map[uint64]*conn{},
		BaseLatencyS: 0.010,
		FastFactor:   4,
		BandwidthBps: 100e6,
	}
}

// Attach registers a new endpoint address.
func (f *Fabric) Attach(addr string) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if addr == "" {
		return nil, errors.New("netlink: empty address")
	}
	if _, dup := f.endpoints[addr]; dup {
		return nil, fmt.Errorf("netlink: address %q in use", addr)
	}
	ep := &Endpoint{}
	f.endpoints[addr] = ep
	return ep, nil
}

// latency computes the one-way delay for a payload on a QoS class.
func (f *Fabric) latency(size int, qos QoSClass) float64 {
	l := f.BaseLatencyS
	if qos == Fast && f.FastFactor > 1 {
		l /= f.FastFactor
	}
	if f.BandwidthBps > 0 {
		l += float64(size) / f.BandwidthBps
	}
	return l
}

// Dial opens a connection from client to server, returning its connection
// ID. Both endpoints must exist.
func (f *Fabric) Dial(client, server string) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.endpoints[client]; !ok {
		return 0, fmt.Errorf("netlink: unknown client %q", client)
	}
	if _, ok := f.endpoints[server]; !ok {
		return 0, fmt.Errorf("netlink: unknown server %q", server)
	}
	f.nextID++
	c := &conn{id: f.nextID, client: client, server: server}
	f.conns[c.id] = c
	return c.id, nil
}

// Send delivers payload over a connection toward the server side. During a
// migration the message is buffered and flushed when the migration
// completes — zero loss, the MoveQUIC guarantee.
func (f *Fabric) Send(connID uint64, payload []byte, qos QoSClass) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.conns[connID]
	if !ok {
		return fmt.Errorf("netlink: unknown connection %d", connID)
	}
	msg := Message{
		From:     c.client,
		ConnID:   connID,
		Payload:  append([]byte(nil), payload...),
		QoS:      qos,
		LatencyS: f.latency(len(payload), qos),
	}
	if c.migrating {
		c.buf = append(c.buf, msg)
		f.buffered++
		return nil
	}
	return f.deliverLocked(c.server, msg)
}

func (f *Fabric) deliverLocked(addr string, msg Message) error {
	ep, ok := f.endpoints[addr]
	if !ok {
		f.dropped++
		return fmt.Errorf("netlink: endpoint %q gone, message dropped", addr)
	}
	ep.inbox = append(ep.inbox, msg)
	f.delivered++
	return nil
}

// Recv drains and returns the endpoint's inbox.
func (f *Fabric) Recv(addr string) ([]Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.endpoints[addr]
	if !ok {
		return nil, fmt.Errorf("netlink: unknown endpoint %q", addr)
	}
	out := ep.inbox
	ep.inbox = nil
	return out, nil
}

// MigrationReport quantifies one server-side migration.
type MigrationReport struct {
	ConnID     uint64
	From, To   string
	StateBytes float64
	// DowntimeS is the simulated service freeze: state transfer time over
	// the fabric bandwidth plus one base latency for the path switch.
	DowntimeS float64
	// FlushedMessages is how many client messages were buffered during the
	// migration and delivered to the new address afterwards.
	FlushedMessages int
}

// BeginMigration freezes a connection's server side in preparation for
// moving it to a new address. Client sends buffer until CompleteMigration.
func (f *Fabric) BeginMigration(connID uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.conns[connID]
	if !ok {
		return fmt.Errorf("netlink: unknown connection %d", connID)
	}
	if c.migrating {
		return fmt.Errorf("netlink: connection %d already migrating", connID)
	}
	c.migrating = true
	return nil
}

// CompleteMigration moves the server side of a connection to newAddr,
// transferring stateBytes of service state, and flushes buffered messages
// to the new address. The connection ID is unchanged — clients never notice
// beyond the downtime.
func (f *Fabric) CompleteMigration(connID uint64, newAddr string, stateBytes float64) (*MigrationReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.conns[connID]
	if !ok {
		return nil, fmt.Errorf("netlink: unknown connection %d", connID)
	}
	if !c.migrating {
		return nil, fmt.Errorf("netlink: connection %d not migrating", connID)
	}
	if _, ok := f.endpoints[newAddr]; !ok {
		return nil, fmt.Errorf("netlink: unknown endpoint %q", newAddr)
	}
	if stateBytes < 0 {
		return nil, fmt.Errorf("netlink: negative state size %v", stateBytes)
	}
	rep := &MigrationReport{
		ConnID:     connID,
		From:       c.server,
		To:         newAddr,
		StateBytes: stateBytes,
		DowntimeS:  f.BaseLatencyS,
	}
	if f.BandwidthBps > 0 {
		rep.DowntimeS += stateBytes / f.BandwidthBps
	}
	c.server = newAddr
	c.migrating = false
	for _, m := range c.buf {
		if err := f.deliverLocked(newAddr, m); err != nil {
			return nil, err
		}
		rep.FlushedMessages++
	}
	c.buf = nil
	return rep, nil
}

// ServerOf returns the current server address of a connection.
func (f *Fabric) ServerOf(connID uint64) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.conns[connID]
	if !ok {
		return "", fmt.Errorf("netlink: unknown connection %d", connID)
	}
	return c.server, nil
}

// Stats returns delivered / dropped / buffered counters.
func (f *Fabric) Stats() (delivered, dropped, buffered int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delivered, f.dropped, f.buffered
}
