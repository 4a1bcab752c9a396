package udsm

import (
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/resilient"
)

// StackOptions declaratively describe a per-store enhancement pipeline. The
// manager assembles it with one kv.Stack call — resilience innermost
// (retries wrap the raw store, so every layer above shares the masking),
// then the DSCL stage (transforms and caching), then any extra layers, with
// the monitored DataStore outermost as always:
//
//	DataStore( extra( dscl( resilient( base ))))
//
// Every stage is optional; the zero value registers the bare store exactly
// like Register. Capabilities of the base store survive the whole pipeline
// via kv.As — each stage either intercepts a capability (re-encoding,
// retrying, cache-coherent) or lets the walk fall through.
type StackOptions struct {
	// Resilience, when non-nil, wraps the base store with timeouts,
	// retries and hedging (kv/resilient).
	Resilience *resilient.Options

	// Transforms is the store-side value pipeline, applied in order
	// (compression before encryption).
	Transforms []dscl.Transform

	// Cache attaches client-side caching with CacheTTL as the entry lease
	// and WritePolicy governing writes (dscl.WriteThrough by default).
	Cache       dscl.Cache
	CacheTTL    time.Duration
	WritePolicy dscl.WritePolicy

	// CacheTransformed caches encoded bytes instead of plaintext
	// (dscl.WithCacheTransformed).
	CacheTransformed bool

	// DSCL appends further dscl options (delta encoding, an invalidation
	// hub, ...) to the DSCL stage.
	DSCL []dscl.Option

	// Layers appends custom middleware outermost, just inside monitoring.
	Layers []kv.Layer
}

// layers assembles the pipeline's kv.Layer slice, innermost first.
func (o StackOptions) layers() []kv.Layer {
	var ls []kv.Layer
	if o.Resilience != nil {
		ls = append(ls, resilient.Layer(*o.Resilience))
	}
	var dopts []dscl.Option
	for _, t := range o.Transforms {
		dopts = append(dopts, dscl.WithTransform(t))
	}
	if o.Cache != nil {
		dopts = append(dopts,
			dscl.WithCache(o.Cache),
			dscl.WithTTL(o.CacheTTL),
			dscl.WithWritePolicy(o.WritePolicy))
	}
	if o.CacheTransformed {
		dopts = append(dopts, dscl.WithCacheTransformed())
	}
	dopts = append(dopts, o.DSCL...)
	if len(dopts) > 0 {
		ls = append(ls, dscl.Layer(dopts...))
	}
	return append(ls, o.Layers...)
}

// RegisterStack builds the enhancement pipeline described by opts over base
// and registers the result — the declarative replacement for hand-wrapping
// a store in resilient.New and dscl.New before Register.
func (m *Manager) RegisterStack(base kv.Store, opts StackOptions) (*DataStore, error) {
	return m.Register(kv.Stack(base, opts.layers()...))
}
