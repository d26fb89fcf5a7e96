// Package energy implements the energy-efficiency substrate (Section 2.3 of
// the paper): PESOS-style QoS-aware virtual-machine consolidation, with
// spreading as the baseline it is measured against.
//
// The headline mechanism is the one PESOS (Catena & Tonellotto, 2017)
// applies to query processing and the paper generalizes to the Continuum:
// minimize the platform's energy footprint by consolidating load onto as
// few powered-on hosts as possible, without violating per-workload QoS.
package energy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/continuum"
)

// VM is a placement request with a QoS constraint.
type VM struct {
	ID    string
	Cores int
	// MinGFLOPSPerCore is the QoS floor: the hosting node must provide at
	// least this per-core speed (a latency-class proxy).
	MinGFLOPSPerCore float64
	// DurationS is the VM's expected lifetime, used for energy accounting.
	DurationS float64
}

// Validate checks the request.
func (v *VM) Validate() error {
	if v.ID == "" {
		return errors.New("energy: VM with empty ID")
	}
	if v.Cores <= 0 {
		return fmt.Errorf("energy: VM %s requests %d cores", v.ID, v.Cores)
	}
	if v.MinGFLOPSPerCore < 0 || v.DurationS < 0 {
		return fmt.Errorf("energy: VM %s has negative QoS/duration", v.ID)
	}
	return nil
}

// Assignment maps VM IDs to node IDs.
type Assignment map[string]string

// Placer decides where VMs run.
type Placer interface {
	Name() string
	// Place assigns every VM to a node with enough free capacity and
	// adequate QoS, reserving cores on the infrastructure. On error the
	// infrastructure is left unchanged.
	Place(vms []VM, inf *continuum.Infrastructure) (Assignment, error)
}

// ErrNoCapacity is returned when a VM cannot be hosted anywhere.
var ErrNoCapacity = errors.New("energy: no node can host VM")

// feasible reports whether node n can host vm right now.
func feasible(vm *VM, n *continuum.Node) bool {
	return n.FreeCores() >= vm.Cores && n.GFLOPSPerCore >= vm.MinGFLOPSPerCore
}

// place assigns each VM using pick to choose among feasible nodes; it rolls
// back all reservations on failure.
func place(vms []VM, inf *continuum.Infrastructure, pick func(*VM) *continuum.Node) (Assignment, error) {
	a := Assignment{}
	var done []struct {
		node  string
		cores int
	}
	rollback := func() {
		for _, d := range done {
			_ = inf.Release(d.node, d.cores)
		}
	}
	for i := range vms {
		vm := &vms[i]
		if err := vm.Validate(); err != nil {
			rollback()
			return nil, err
		}
		if _, dup := a[vm.ID]; dup {
			rollback()
			return nil, fmt.Errorf("energy: duplicate VM %q", vm.ID)
		}
		n := pick(vm)
		if n == nil {
			rollback()
			return nil, fmt.Errorf("%w: %s (%d cores, >= %.1f GF/core)",
				ErrNoCapacity, vm.ID, vm.Cores, vm.MinGFLOPSPerCore)
		}
		if err := inf.Reserve(n.ID, vm.Cores); err != nil {
			rollback()
			return nil, err
		}
		a[vm.ID] = n.ID
		done = append(done, struct {
			node  string
			cores int
		}{n.ID, vm.Cores})
	}
	return a, nil
}

// Consolidating is the PESOS-style placer: each VM goes to the feasible
// node whose marginal power increase is smallest — the dynamic-power cost of
// the VM's cores, plus the idle draw if the node must be woken. Already-on
// nodes are therefore filled before new ones wake, and when a wake is
// unavoidable the most power-proportional node is chosen.
type Consolidating struct{}

// Name implements Placer.
func (Consolidating) Name() string { return "consolidating" }

// Place implements Placer.
func (Consolidating) Place(vms []VM, inf *continuum.Infrastructure) (Assignment, error) {
	// Sort VMs by cores descending (best-fit-decreasing) without mutating
	// the caller's slice.
	sorted := append([]VM(nil), vms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cores > sorted[j].Cores })
	return place(sorted, inf, func(vm *VM) *continuum.Node {
		var best *continuum.Node
		bestDelta := 0.0
		for _, n := range inf.Nodes() {
			if !feasible(vm, n) {
				continue
			}
			delta := (n.MaxW - n.IdleW) * float64(vm.Cores) / float64(n.Cores)
			if n.ReservedCores() == 0 {
				delta += n.IdleW // waking cost
			}
			better := best == nil || delta < bestDelta ||
				// Ties: prefer the tighter fit, then the lexicographically
				// smaller ID for determinism.
				(delta == bestDelta && (n.FreeCores() < best.FreeCores() ||
					(n.FreeCores() == best.FreeCores() && n.ID < best.ID)))
			if better {
				best, bestDelta = n, delta
			}
		}
		return best
	})
}

// Spreading is the load-balancing baseline: worst-fit (most free cores
// first), which maximizes the number of powered-on nodes.
type Spreading struct{}

// Name implements Placer.
func (Spreading) Name() string { return "spreading" }

// Place implements Placer.
func (Spreading) Place(vms []VM, inf *continuum.Infrastructure) (Assignment, error) {
	return place(append([]VM(nil), vms...), inf, func(vm *VM) *continuum.Node {
		var best *continuum.Node
		for _, n := range inf.Nodes() {
			if !feasible(vm, n) {
				continue
			}
			if best == nil || n.FreeCores() > best.FreeCores() ||
				(n.FreeCores() == best.FreeCores() && n.ID < best.ID) {
				best = n
			}
		}
		return best
	})
}

// Report quantifies a placement's energy footprint.
type Report struct {
	Placer        string
	ActiveNodes   int     // nodes hosting at least one VM
	IdlePowerW    float64 // summed idle draw of active nodes
	DynamicW      float64 // utilization-dependent draw of active nodes
	TotalPowerW   float64
	EnergyJ       float64 // over the max VM duration (steady-state approx.)
	QoSViolations int
}

// Evaluate computes the energy report for an assignment. QoS violations
// count VMs whose node misses their per-core speed floor (zero for correct
// placers; the metric exists to validate them and to grade adversarial
// assignments).
func Evaluate(placerName string, vms []VM, a Assignment, inf *continuum.Infrastructure) (*Report, error) {
	r := &Report{Placer: placerName}
	active := map[string]bool{}
	var horizon float64
	for i := range vms {
		vm := &vms[i]
		nodeID, ok := a[vm.ID]
		if !ok {
			return nil, fmt.Errorf("energy: VM %q unassigned", vm.ID)
		}
		n, err := inf.Node(nodeID)
		if err != nil {
			return nil, err
		}
		if n.GFLOPSPerCore < vm.MinGFLOPSPerCore {
			r.QoSViolations++
		}
		active[nodeID] = true
		if vm.DurationS > horizon {
			horizon = vm.DurationS
		}
	}
	ids := make([]string, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic float summation order
	for _, id := range ids {
		n, _ := inf.Node(id)
		r.IdlePowerW += n.IdleW
		r.DynamicW += (n.MaxW - n.IdleW) * n.Utilization()
	}
	r.ActiveNodes = len(active)
	r.TotalPowerW = r.IdlePowerW + r.DynamicW
	r.EnergyJ = r.TotalPowerW * horizon
	return r, nil
}

// ReleaseAll returns every reservation of an assignment, restoring the
// infrastructure (for what-if comparisons on the same nodes).
func ReleaseAll(vms []VM, a Assignment, inf *continuum.Infrastructure) error {
	for i := range vms {
		if nodeID, ok := a[vms[i].ID]; ok {
			if err := inf.Release(nodeID, vms[i].Cores); err != nil {
				return err
			}
		}
	}
	return nil
}
