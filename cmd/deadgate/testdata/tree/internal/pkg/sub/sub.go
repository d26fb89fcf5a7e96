// Package sub is a nested fixture package.
package sub

// Go starts a goroutine, so the listing holds only its wrapper.
func Go() {
	go func() {}()
}
