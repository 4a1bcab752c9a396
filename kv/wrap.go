package kv

// Composable store middleware. Every enhancement layer in this repository —
// resilience, caching, transforms, monitoring — wraps a Store in another
// Store. This file defines the one model through which those wrappers
// compose and through which capabilities (Versioned, Batch, Expiring, SQL,
// CompareAndPut) survive wrapping by construction:
//
//   - Wrapper exposes the next store down, the way errors.Unwrap exposes the
//     next error.
//   - As walks the wrap chain the way errors.As walks error chains, so a
//     capability implemented anywhere in the stack is discoverable from the
//     top.
//   - Layer and Stack are the net/http-middleware idiom for building the
//     stack in the first place.
//
// The intercept-vs-passthrough rule. A layer that must see a capability's
// calls to stay correct — a transform re-encoding Versioned reads, a
// resilience wrapper retrying conditional writes — implements the interface
// itself and *wins* the As walk. A layer with nothing to add simply exposes
// Unwrap and the walk falls through to whoever does implement it. A layer
// whose static method set is broader than what its configuration supports
// additionally implements Interceptor to decline capabilities per instance.

// Wrapper is implemented by store middleware that wraps another Store.
// Unwrap returns the wrapped store, or nil when the wrapper must not be
// bypassed (the delta chain, for instance, owns the physical layout:
// reaching the raw store underneath it would read chain records).
type Wrapper interface {
	Unwrap() Store
}

// Interceptor refines the As walk for wrappers whose Go method set is
// broader than what one configured instance actually supports (interfaces
// are static; configuration is not). As consults Intercepts with a typed
// nil pointer to the capability interface — (*Versioned)(nil),
// (*Batch)(nil), ... — before trusting a type assertion on the wrapper.
// Returning false sends the walk onward to the wrapped store. Wrappers that
// do not implement Interceptor intercept everything their type implements.
type Interceptor interface {
	Intercepts(capability any) bool
}

// maxWrapDepth bounds the As walk so a cyclic chain cannot hang it.
const maxWrapDepth = 100

// As reports whether s, or any store it wraps, provides capability T, and
// returns the shallowest provider. Like errors.As, it walks outward-in: a
// wrapper that implements (and intercepts) T answers before the stores it
// wraps, so layered semantics — retried CAS, transform-aware versioned
// reads — are preserved. The walk stops at any store that neither provides
// T nor implements Wrapper, and at a Wrapper whose Unwrap returns nil.
//
// T must be an interface type (typically one of the kv capability
// interfaces: Versioned, Batch, VersionedBatch, Expiring, SQL,
// CompareAndPut — or Store itself).
func As[T any](s Store) (T, bool) {
	for depth := 0; s != nil && depth < maxWrapDepth; depth++ {
		if t, ok := s.(T); ok {
			ic, gated := s.(Interceptor)
			if !gated || ic.Intercepts((*T)(nil)) {
				return t, true
			}
		}
		w, ok := s.(Wrapper)
		if !ok {
			break
		}
		s = w.Unwrap()
	}
	var zero T
	return zero, false
}

// A Layer is store middleware: it takes a store and returns an enhanced
// store wrapping it, the way net/http middleware wraps handlers.
type Layer func(Store) Store

// Stack composes layers over base. Layers apply in order, so layers[0] is
// the innermost wrapper (closest to the base store) and the last layer is
// the outermost (the store the caller holds and the first to see every
// operation):
//
//	Stack(base, resilient, cache) == cache(resilient(base))
//
// Nil layers are skipped, so optional layers can be built conditionally.
func Stack(base Store, layers ...Layer) Store {
	s := base
	for _, l := range layers {
		if l == nil {
			continue
		}
		s = l(s)
	}
	return s
}
