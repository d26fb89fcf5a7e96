package interactive

import (
	"errors"
	"fmt"
)

// This file implements the BookedSlurm mechanism: a web-calendar-style
// booking front-end over cluster reservations, with pay-per-use accounting
// in a digital currency ("credits"). Bookings convert 1:1 into queue
// reservations.

// Account is a user's credit balance.
type Account struct {
	User    string
	Credits float64
}

// Booking is one calendar entry.
type Booking struct {
	ID    string
	User  string
	Cores int
	Start float64
	End   float64
	Cost  float64
}

// Calendar manages bookings against a reservable capacity.
type Calendar struct {
	// ReservableCores caps concurrent booked cores (typically a fraction
	// of the cluster so batch work is never starved).
	ReservableCores int
	// CreditsPerCoreHour is the pay-per-use rate.
	CreditsPerCoreHour float64

	accounts map[string]*Account
	bookings map[string]*Booking
	nextID   int
}

// NewCalendar returns a calendar with the given reservable capacity and
// rate.
func NewCalendar(reservableCores int, rate float64) (*Calendar, error) {
	if reservableCores <= 0 {
		return nil, fmt.Errorf("interactive: non-positive reservable capacity %d", reservableCores)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("interactive: non-positive rate %v", rate)
	}
	return &Calendar{
		ReservableCores:    reservableCores,
		CreditsPerCoreHour: rate,
		accounts:           map[string]*Account{},
		bookings:           map[string]*Booking{},
	}, nil
}

// Deposit credits a user account (creating it if needed).
func (c *Calendar) Deposit(user string, credits float64) error {
	if user == "" {
		return errors.New("interactive: empty user")
	}
	if credits <= 0 {
		return fmt.Errorf("interactive: non-positive deposit %v", credits)
	}
	a, ok := c.accounts[user]
	if !ok {
		a = &Account{User: user}
		c.accounts[user] = a
	}
	a.Credits += credits
	return nil
}

// bookedAt returns the peak booked cores over [from, to).
func (c *Calendar) bookedAt(from, to float64) int {
	tl := newTimeline(c.ReservableCores)
	for _, b := range c.bookings {
		tl.add(b.Start, b.End, b.Cores)
	}
	return tl.maxUsage(from, to)
}

// Book creates a booking for user over [start, end) with cores cores,
// charging cores × hours × rate credits. It fails (without side effects)
// when capacity or credits are insufficient.
func (c *Calendar) Book(user string, cores int, start, end float64) (*Booking, error) {
	a, ok := c.accounts[user]
	if !ok {
		return nil, fmt.Errorf("interactive: unknown user %q", user)
	}
	if cores <= 0 || cores > c.ReservableCores {
		return nil, fmt.Errorf("interactive: cores %d outside (0,%d]", cores, c.ReservableCores)
	}
	if end <= start || start < 0 {
		return nil, fmt.Errorf("interactive: invalid window [%v,%v)", start, end)
	}
	if c.bookedAt(start, end)+cores > c.ReservableCores {
		return nil, fmt.Errorf("interactive: calendar full for [%v,%v)", start, end)
	}
	cost := float64(cores) * (end - start) / 3600 * c.CreditsPerCoreHour
	if a.Credits < cost {
		return nil, fmt.Errorf("interactive: user %q has %.2f credits, booking costs %.2f", user, a.Credits, cost)
	}
	a.Credits -= cost
	c.nextID++
	b := &Booking{
		ID:    fmt.Sprintf("bk-%04d", c.nextID),
		User:  user,
		Cores: cores,
		Start: start,
		End:   end,
		Cost:  cost,
	}
	c.bookings[b.ID] = b
	return b, nil
}

// ToReservation converts a booking into a queue reservation.
func (b *Booking) ToReservation() Reservation {
	return Reservation{ID: b.ID, Cores: b.Cores, Start: b.Start, End: b.End}
}
