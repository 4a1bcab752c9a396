package kvtest

import (
	"strings"
	"testing"

	"edsc/kv"
)

// StackLayer is one named middleware stage for RunStack. Layers are
// supplied by the caller (kvtest cannot import dscl or resilient for them
// without an import cycle — dscl's own tests run this suite).
type StackLayer struct {
	Name  string
	Layer kv.Layer
}

// RunStack is the middleware-composition conformance suite: for a matrix of
// stack orders built from layers over stores from f, it asserts that every
// capability the bare base store advertises is still discoverable through
// the stacked store via kv.As, that none it lacks is claimed by a layer — and
// that each behaves, by running the capability
// suites (RunVersioned, RunExpiring, RunCompareAndPut, RunBatch, RunRanged) through
// the full stack. Layers must be semantically transparent to the data path
// (a cache, a transform, a retry wrapper — not a mock that drops writes).
//
// The matrix is every permutation of all layers (for up to three layers)
// plus each layer alone, so both ordering bugs ("transform outside the
// cache" vs inside) and single-layer hiding bugs are caught.
func RunStack(t *testing.T, f Factory, layers ...StackLayer) {
	if len(layers) == 0 {
		t.Fatal("RunStack needs at least one layer")
	}

	var baseCaps map[string]bool
	t.Run("BaseCapabilities", func(t *testing.T) {
		s := open(t, f)
		baseCaps = capsOf(s)
	})
	if baseCaps == nil {
		t.Fatal("could not profile the bare base store")
	}

	for _, order := range stackOrders(layers) {
		order := order
		names := make([]string, len(order))
		kvLayers := make([]kv.Layer, len(order))
		for i, l := range order {
			names[i] = l.Name
			kvLayers[i] = l.Layer
		}
		// Innermost layer first: "a_b" is b(a(base)).
		t.Run(strings.Join(names, "_"), func(t *testing.T) {
			sf := func(t *testing.T) (kv.Store, func()) {
				s, cleanup := f(t)
				return kv.Stack(s, kvLayers...), cleanup
			}
			t.Run("CapabilityParity", func(t *testing.T) {
				s := open(t, sf)
				got := capsOf(s)
				for name, had := range baseCaps {
					if had && !got[name] {
						t.Errorf("base capability kv.%s hidden by this stack", name)
					}
					if !had && got[name] {
						t.Errorf("kv.%s claimed by this stack over a base without it", name)
					}
				}
			})
			t.Run("RoundTrip", func(t *testing.T) {
				testPutGet(t, sf)
				testGetMissing(t, sf)
				testOverwrite(t, sf)
				testDelete(t, sf)
			})
			t.Run("Batch", func(t *testing.T) { RunBatch(t, sf) })
			if baseCaps["Versioned"] {
				t.Run("Versioned", func(t *testing.T) { RunVersioned(t, sf) })
			}
			if baseCaps["Expiring"] {
				t.Run("Expiring", func(t *testing.T) { RunExpiring(t, sf) })
			}
			if baseCaps["CompareAndPut"] {
				t.Run("CompareAndPut", func(t *testing.T) { RunCompareAndPut(t, sf) })
			}
			if baseCaps["Ranged"] {
				t.Run("Ranged", func(t *testing.T) { RunRanged(t, sf) })
			}
		})
	}
}

func has[T any](s kv.Store) bool {
	_, ok := kv.As[T](s)
	return ok
}

func capsOf(s kv.Store) map[string]bool {
	return map[string]bool{
		"Versioned":      has[kv.Versioned](s),
		"VersionedBatch": has[kv.VersionedBatch](s),
		"Expiring":       has[kv.Expiring](s),
		"SQL":            has[kv.SQL](s),
		"CompareAndPut":  has[kv.CompareAndPut](s),
		"Ranged":         has[kv.Ranged](s),
	}
}

// stackOrders builds the order matrix: every permutation when there are at
// most three layers (cyclic rotations beyond that, to keep the matrix
// bounded), plus each single layer.
func stackOrders(layers []StackLayer) [][]StackLayer {
	var orders [][]StackLayer
	if len(layers) <= 3 {
		orders = permute(layers)
	} else {
		for i := range layers {
			rot := make([]StackLayer, 0, len(layers))
			rot = append(rot, layers[i:]...)
			rot = append(rot, layers[:i]...)
			orders = append(orders, rot)
		}
	}
	if len(layers) > 1 {
		for _, l := range layers {
			orders = append(orders, []StackLayer{l})
		}
	}
	return orders
}

func permute(layers []StackLayer) [][]StackLayer {
	if len(layers) <= 1 {
		return [][]StackLayer{append([]StackLayer(nil), layers...)}
	}
	var out [][]StackLayer
	for i := range layers {
		rest := make([]StackLayer, 0, len(layers)-1)
		rest = append(rest, layers[:i]...)
		rest = append(rest, layers[i+1:]...)
		for _, p := range permute(rest) {
			out = append(out, append([]StackLayer{layers[i]}, p...))
		}
	}
	return out
}
