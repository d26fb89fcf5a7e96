package interactive

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file implements an ICS/SLURM-style cluster queue: batch jobs run
// FCFS with EASY backfilling over a fixed core pool, and advance
// reservations carve capacity out of the pool so interactive sessions get
// near-instantaneous access (Section 2.1: ICS "interactively provides
// near-instantaneous access to HPC resources" on top of the SLURM
// controller; BookedSlurm creates the reservations).

// Job is a batch submission.
type Job struct {
	ID       string
	Cores    int
	Duration float64 // walltime, seconds
	SubmitAt float64
	// ReservationID binds the job to a reservation (interactive session);
	// it then runs inside the reserved capacity at the reservation start.
	ReservationID string
}

// Reservation carves cores out of the pool for [Start, End).
type Reservation struct {
	ID    string
	Cores int
	Start float64
	End   float64
}

// JobTrace records a completed job.
type JobTrace struct {
	Job    Job
	StartS float64
	EndS   float64
	WaitS  float64
}

// usagePoint is a step-function delta at a time.
type usagePoint struct {
	at    float64
	delta int
}

// timeline tracks committed core usage over time as a step function.
type timeline struct {
	points []usagePoint
	cap    int
}

func newTimeline(capacity int) *timeline { return &timeline{cap: capacity} }

// add commits delta cores over [from, to).
func (t *timeline) add(from, to float64, cores int) {
	t.points = append(t.points, usagePoint{from, cores}, usagePoint{to, -cores})
	sort.Slice(t.points, func(i, j int) bool { return t.points[i].at < t.points[j].at })
}

// maxUsage returns the peak committed usage over [from, to). Intervals are
// half-open, so a commitment ending exactly at `from` (its -delta fires at
// `from`) does not count, and one starting exactly at `from` does.
func (t *timeline) maxUsage(from, to float64) int {
	usage := 0
	for _, p := range t.points {
		if p.at > from {
			break
		}
		usage += p.delta // everything effective at or before `from`
	}
	peak := usage
	for _, p := range t.points {
		if p.at <= from {
			continue
		}
		if p.at >= to {
			break
		}
		usage += p.delta
		if usage > peak {
			peak = usage
		}
	}
	return peak
}

// fits reports whether cores can be committed over [from, to).
func (t *timeline) fits(from, to float64, cores int) bool {
	return t.maxUsage(from, to)+cores <= t.cap
}

// changeTimes returns the sorted distinct times ≥ from where usage changes.
func (t *timeline) changeTimes(from float64) []float64 {
	var out []float64
	last := math.Inf(-1)
	for _, p := range t.points {
		if p.at >= from && p.at != last {
			out = append(out, p.at)
			last = p.at
		}
	}
	return out
}

// Cluster is the queued core pool.
type Cluster struct {
	Cores int

	timeline     *timeline
	reservations map[string]*Reservation
	jobs         []Job
	// EnableBackfill turns EASY backfilling on (default in NewCluster).
	EnableBackfill bool
}

// NewCluster returns a cluster with the given core count.
func NewCluster(cores int) (*Cluster, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("interactive: non-positive core count %d", cores)
	}
	return &Cluster{
		Cores:          cores,
		timeline:       newTimeline(cores),
		reservations:   map[string]*Reservation{},
		EnableBackfill: true,
	}, nil
}

// Reserve registers an advance reservation, failing if the carve-out would
// exceed capacity given existing commitments.
func (c *Cluster) Reserve(r Reservation) error {
	if r.ID == "" {
		return errors.New("interactive: reservation with empty ID")
	}
	if _, dup := c.reservations[r.ID]; dup {
		return fmt.Errorf("interactive: duplicate reservation %q", r.ID)
	}
	if r.Cores <= 0 || r.Cores > c.Cores {
		return fmt.Errorf("interactive: reservation %q cores %d outside (0,%d]", r.ID, r.Cores, c.Cores)
	}
	if r.End <= r.Start || r.Start < 0 {
		return fmt.Errorf("interactive: reservation %q has invalid window [%v,%v)", r.ID, r.Start, r.End)
	}
	if !c.timeline.fits(r.Start, r.End, r.Cores) {
		return fmt.Errorf("interactive: reservation %q does not fit", r.ID)
	}
	cp := r
	c.reservations[r.ID] = &cp
	c.timeline.add(r.Start, r.End, r.Cores)
	return nil
}

// Submit queues a job for the simulation run.
func (c *Cluster) Submit(j Job) error {
	if j.ID == "" {
		return errors.New("interactive: job with empty ID")
	}
	for _, q := range c.jobs {
		if q.ID == j.ID {
			return fmt.Errorf("interactive: duplicate job %q", j.ID)
		}
	}
	if j.Cores <= 0 || j.Duration <= 0 || j.SubmitAt < 0 {
		return fmt.Errorf("interactive: job %q has invalid parameters", j.ID)
	}
	if j.ReservationID != "" {
		r, ok := c.reservations[j.ReservationID]
		if !ok {
			return fmt.Errorf("interactive: job %q references unknown reservation %q", j.ID, j.ReservationID)
		}
		if j.Cores > r.Cores {
			return fmt.Errorf("interactive: job %q needs %d cores, reservation has %d", j.ID, j.Cores, r.Cores)
		}
		if j.SubmitAt > r.Start {
			return fmt.Errorf("interactive: job %q submitted after its reservation start", j.ID)
		}
		if j.Duration > r.End-r.Start {
			return fmt.Errorf("interactive: job %q longer than its reservation", j.ID)
		}
	} else if j.Cores > c.Cores {
		return fmt.Errorf("interactive: job %q needs %d cores, cluster has %d", j.ID, j.Cores, c.Cores)
	}
	c.jobs = append(c.jobs, j)
	return nil
}

// Run schedules all submitted jobs to completion and returns their traces
// sorted by start time (ties by ID). The scheduling policy is FCFS by
// submit time with EASY backfilling; reservation-bound jobs start exactly
// at their reservation start inside the carved capacity.
func (c *Cluster) Run() ([]JobTrace, error) {
	var traces []JobTrace

	// Reservation-bound jobs: start at reservation start, using capacity
	// already committed by Reserve (no extra timeline charge).
	var batch []Job
	for _, j := range c.jobs {
		if j.ReservationID != "" {
			r := c.reservations[j.ReservationID]
			traces = append(traces, JobTrace{
				Job:    j,
				StartS: r.Start,
				EndS:   r.Start + j.Duration,
				WaitS:  math.Max(0, r.Start-j.SubmitAt),
			})
			continue
		}
		batch = append(batch, j)
	}

	// FCFS order by submit time (stable on ID for determinism).
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].SubmitAt != batch[j].SubmitAt {
			return batch[i].SubmitAt < batch[j].SubmitAt
		}
		return batch[i].ID < batch[j].ID
	})

	earliestStart := func(j Job, notBefore float64) float64 {
		t0 := math.Max(j.SubmitAt, notBefore)
		if c.timeline.fits(t0, t0+j.Duration, j.Cores) {
			return t0
		}
		for _, tc := range c.timeline.changeTimes(t0) {
			if c.timeline.fits(tc, tc+j.Duration, j.Cores) {
				return tc
			}
		}
		// After the last change everything committed has ended.
		last := t0
		if n := len(c.timeline.points); n > 0 {
			last = math.Max(t0, c.timeline.points[n-1].at)
		}
		return last
	}

	scheduled := map[string]JobTrace{}
	var fcfsClock float64 // FCFS fairness: each head job starts no earlier than the previous head's start
	for i := 0; i < len(batch); i++ {
		j := batch[i]
		start := earliestStart(j, math.Max(j.SubmitAt, 0))
		// FCFS: never start before an earlier-submitted job's start unless
		// backfilling is on (EASY: allowed if it does not delay any
		// earlier job's committed start — commitments are already in the
		// timeline, so any feasible slot respects them).
		if !c.EnableBackfill && start < fcfsClock {
			start = earliestStart(j, fcfsClock)
		}
		c.timeline.add(start, start+j.Duration, j.Cores)
		scheduled[j.ID] = JobTrace{Job: j, StartS: start, EndS: start + j.Duration, WaitS: start - j.SubmitAt}
		if start > fcfsClock {
			fcfsClock = start
		}
	}
	for _, tr := range scheduled {
		traces = append(traces, tr)
	}
	sort.Slice(traces, func(i, j int) bool {
		if traces[i].StartS != traces[j].StartS {
			return traces[i].StartS < traces[j].StartS
		}
		return traces[i].Job.ID < traces[j].Job.ID
	})
	return traces, nil
}
