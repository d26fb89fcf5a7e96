package orchestrator

import (
	"errors"
	"fmt"

	"repro/internal/continuum"
)

// This file models Liqo-style dynamic cluster federation (Section 2.2 and
// application 3.4/3.8): independently administered clusters establish
// peerings; a peering lets a consumer cluster schedule work onto a share of
// the provider's resources through a single "virtual node" view.

// Cluster is one administrative domain owning an infrastructure.
type Cluster struct {
	Name  string
	Infra *continuum.Infrastructure
	peers map[string]*peering
}

type peering struct {
	provider *Cluster
	shareCap int // max cores borrowable
	borrowed int
}

// NewCluster wraps an infrastructure as a federable cluster.
func NewCluster(name string, inf *continuum.Infrastructure) *Cluster {
	return &Cluster{Name: name, Infra: inf, peers: map[string]*peering{}}
}

// Peer establishes an outgoing peering: c may borrow up to shareCores cores
// from provider. Re-peering with the same provider updates the cap (never
// below what is already borrowed).
func (c *Cluster) Peer(provider *Cluster, shareCores int) error {
	if provider == nil || provider == c {
		return errors.New("orchestrator: invalid peering target")
	}
	if shareCores <= 0 {
		return fmt.Errorf("orchestrator: non-positive share %d", shareCores)
	}
	if p, ok := c.peers[provider.Name]; ok {
		if shareCores < p.borrowed {
			return fmt.Errorf("orchestrator: cannot shrink share below %d borrowed cores", p.borrowed)
		}
		p.shareCap = shareCores
		return nil
	}
	c.peers[provider.Name] = &peering{provider: provider, shareCap: shareCores}
	return nil
}

// Borrow reserves cores on a provider's infrastructure through a peering,
// spreading the request across the provider's nodes (largest free first).
// It returns the per-node grants, or an error leaving state untouched.
func (c *Cluster) Borrow(provider string, cores int) (map[string]int, error) {
	p, ok := c.peers[provider]
	if !ok {
		return nil, fmt.Errorf("orchestrator: no peering with %q", provider)
	}
	if cores <= 0 {
		return nil, fmt.Errorf("orchestrator: non-positive borrow %d", cores)
	}
	if p.borrowed+cores > p.shareCap {
		return nil, fmt.Errorf("orchestrator: borrow %d exceeds share (cap %d, borrowed %d)",
			cores, p.shareCap, p.borrowed)
	}
	// Plan grants without mutating, then apply.
	grants := map[string]int{}
	need := cores
	for _, id := range p.provider.Infra.SortedByFreeCores() {
		if need == 0 {
			break
		}
		n, _ := p.provider.Infra.Node(id)
		take := n.FreeCores()
		if take > need {
			take = need
		}
		if take > 0 {
			grants[id] = take
			need -= take
		}
	}
	if need > 0 {
		return nil, fmt.Errorf("orchestrator: provider %q has only %d free cores, need %d",
			provider, cores-need, cores)
	}
	for id, k := range grants {
		if err := p.provider.Infra.Reserve(id, k); err != nil {
			// Roll back already-applied grants.
			for rid, rk := range grants {
				if rid == id {
					break
				}
				_ = p.provider.Infra.Release(rid, rk)
			}
			return nil, err
		}
	}
	p.borrowed += cores
	return grants, nil
}

// Return gives borrowed cores back to the provider.
func (c *Cluster) Return(provider string, grants map[string]int) error {
	p, ok := c.peers[provider]
	if !ok {
		return fmt.Errorf("orchestrator: no peering with %q", provider)
	}
	total := 0
	for _, k := range grants {
		total += k
	}
	if total <= 0 || total > p.borrowed {
		return fmt.Errorf("orchestrator: invalid return of %d cores (borrowed %d)", total, p.borrowed)
	}
	for id, k := range grants {
		if err := p.provider.Infra.Release(id, k); err != nil {
			return err
		}
	}
	p.borrowed -= total
	return nil
}
