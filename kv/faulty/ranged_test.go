package faulty_test

import (
	"testing"

	"edsc/kv"
	"edsc/kv/faulty"
	"edsc/kv/kvtest"
)

// TestRangedConformance: with no faults configured the injector is a
// transparent kv.Ranged over a store that serves ranged reads.
func TestRangedConformance(t *testing.T) {
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		return faulty.New(kv.NewMem("m"), faulty.Options{}), nil
	})
}
