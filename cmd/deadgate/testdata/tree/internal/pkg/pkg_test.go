package pkg

import "testing"

func TestOnlyInTests(t *testing.T) {}
