// Package pkg is a fixture for the deadgate tests: one function of each
// shape the linker names differently.
package pkg

func init() {}

// File is a struct the generic Map is instantiated with.
type File struct {
	Files   []string
	RawSize int
}

// Map is generic and defers inside a closure.
func Map[T, R any](xs []T, f func(T) R) []R {
	out := make([]R, 0, len(xs))
	func() {
		defer func() {}()
		for _, x := range xs {
			out = append(out, f(x))
		}
	}()
	return out
}

// S is a generic type with a pointer method.
type S[T any] struct{ v T }

// M is reached through its shape instantiation.
func (s *S[T]) M() T { return s.v }

// V has one value and one pointer method.
type V struct{}

// Val is a value method; only its pointer wrapper is in the listing.
func (V) Val() int { return 1 }

// Ptr is a pointer method.
func (*V) Ptr() int { return 2 }

// F leaves only a data symbol (F.stkobj) in the listing.
func F() {}

// Listed is reached by nothing and allowlisted.
func Listed() {}
