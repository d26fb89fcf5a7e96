package orchestrator

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/workflow"
)

// This file implements a TOSCA-flavoured application blueprint (Section 3.8:
// "the provider needs to describe the application case and its workflow
// using the standardized TOSCA notation"). A Blueprint is a declarative JSON
// document naming components, their requirements and their dependency
// relations; Compile lowers it to the internal workflow representation that
// placement policies consume.

// Component is one node template of the blueprint.
type Component struct {
	Name string `json:"name"`
	Type string `json:"type"` // free-form, e.g. "container", "job", "function"
	// Requirements.
	Cores    int     `json:"cores,omitempty"`
	MemoryGB float64 `json:"memory_gb,omitempty"`
	GFlop    float64 `json:"gflop,omitempty"`
	OutputMB float64 `json:"output_mb,omitempty"`
	Tier     string  `json:"tier,omitempty"` // "hpc", "cloud", "edge" or ""
	// DependsOn lists upstream component names (TOSCA relationship
	// "DependsOn"); data flows along these edges.
	DependsOn []string `json:"depends_on,omitempty"`
}

// Blueprint is the deployable application description.
type Blueprint struct {
	Name       string      `json:"name"`
	Version    string      `json:"version,omitempty"`
	Components []Component `json:"components"`
	// Policies configure orchestration (mirrors TOSCA policy blocks).
	Policies struct {
		Placement string `json:"placement,omitempty"` // a Policy name
	} `json:"policies,omitempty"`
}

// ParseBlueprint decodes a blueprint from JSON.
func ParseBlueprint(r io.Reader) (*Blueprint, error) {
	var b Blueprint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("orchestrator: parsing blueprint: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// Validate checks the blueprint before compilation.
func (b *Blueprint) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("orchestrator: blueprint without name")
	}
	if len(b.Components) == 0 {
		return fmt.Errorf("orchestrator: blueprint %q has no components", b.Name)
	}
	names := map[string]bool{}
	for _, c := range b.Components {
		if c.Name == "" {
			return fmt.Errorf("orchestrator: blueprint %q has unnamed component", b.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("orchestrator: blueprint %q duplicates component %q", b.Name, c.Name)
		}
		names[c.Name] = true
		switch c.Tier {
		case "", "hpc", "cloud", "edge":
		default:
			return fmt.Errorf("orchestrator: component %q has invalid tier %q", c.Name, c.Tier)
		}
	}
	for _, c := range b.Components {
		for _, d := range c.DependsOn {
			if !names[d] {
				return fmt.Errorf("orchestrator: component %q depends on unknown %q", c.Name, d)
			}
		}
	}
	return nil
}

// Compile lowers the blueprint to a workflow (validating acyclicity).
func (b *Blueprint) Compile() (*workflow.Workflow, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	wf := workflow.New(b.Name)
	for _, c := range b.Components {
		if err := wf.Add(workflow.Step{
			ID:          c.Name,
			After:       c.DependsOn,
			WorkGFlop:   c.GFlop,
			Cores:       c.Cores,
			MemoryGB:    c.MemoryGB,
			OutputBytes: c.OutputMB * 1e6,
			Tier:        c.Tier,
		}); err != nil {
			return nil, err
		}
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return wf, nil
}

// Policy resolves the blueprint's placement policy name to an implementation
// (defaulting to data-local when unset).
func (b *Blueprint) Policy() (Policy, error) {
	switch b.Policies.Placement {
	case "", "data-local":
		return DataLocal{}, nil
	case "round-robin":
		return RoundRobin{}, nil
	case "random":
		return Random{}, nil
	case "cost-aware":
		return CostAware{}, nil
	case "energy-aware":
		return EnergyAware{}, nil
	case "heft":
		return HEFT{}, nil
	default:
		return nil, fmt.Errorf("orchestrator: unknown placement policy %q", b.Policies.Placement)
	}
}
