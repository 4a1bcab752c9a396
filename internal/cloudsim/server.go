package cloudsim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edsc/monitor"
)

// Server is a simulated cloud object store: a REST API over buckets of
// objects, with ETag-based conditional GETs (the revalidation mechanism of
// Fig. 7) and an injected WAN latency model.
//
// API (object keys are path-escaped into a single path segment):
//
//	PUT    /v1/{bucket}/{key}        store body; returns ETag header
//	GET    /v1/{bucket}/{key}        fetch; honours If-None-Match -> 304
//	HEAD   /v1/{bucket}/{key}        existence + ETag
//	DELETE /v1/{bucket}/{key}        remove; 404 when absent
//	GET    /v1/{bucket}              JSON array of keys
//	DELETE /v1/{bucket}              empty the bucket
//	POST   /v1/{bucket}?batch=get    bulk fetch: body is a JSON array of
//	                                 keys; reply is a JSON array of
//	                                 {key,value,etag} with absent keys
//	                                 omitted. One WAN round trip for the
//	                                 whole payload.
//	POST   /v1/{bucket}?batch=put    bulk store: body is a JSON array of
//	                                 {key,value}; reply is a JSON array of
//	                                 {key,etag}. One WAN round trip.
type Server struct {
	model *model

	// faults, when non-nil, injects wire-level failures ahead of request
	// handling (see Faults).
	faults atomic.Pointer[faultState]

	mu      sync.RWMutex
	buckets map[string]map[string]object

	rec     *monitor.Recorder
	metrics *monitor.Registry

	http *http.Server
	ln   net.Listener
}

type object struct {
	data []byte
	etag string
}

// NewServer builds a server with the given latency profile.
func NewServer(p Profile) *Server {
	s := &Server{
		model:   newModel(p),
		buckets: make(map[string]map[string]object),
		rec:     monitor.New("cloudsim", 256),
		metrics: monitor.NewRegistry(),
	}
	s.metrics.Register(s.rec)
	return s
}

// Metrics returns the server's registry, so callers can register extra
// sources (e.g. a client-side resilience wrapper's counters) that then show
// up on this server's /metrics endpoint.
func (s *Server) Metrics() *monitor.Registry { return s.metrics }

// Start listens on 127.0.0.1 (ephemeral port) and serves in the background.
func (s *Server) Start() error { return s.StartAddr("127.0.0.1:0") }

// StartAddr is Start on a specific listen address.
func (s *Server) StartAddr(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cloudsim: listen: %w", err)
	}
	s.ln = ln
	// The observability surface (/metrics, /debug/vars, /debug/pprof/)
	// rides on its own mux; everything else goes to the API handler
	// directly — a ServeMux would path-clean object keys like ".." and
	// redirect them. Fault injection applies only to API traffic, so
	// scrapes keep working while the store misbehaves.
	obs := http.NewServeMux()
	monitor.Mount(obs, s.metrics)
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/") {
			obs.ServeHTTP(w, r)
			return
		}
		s.handleAPI(w, r)
	})}
	go func() { _ = s.http.Serve(ln) }()
	return nil
}

// statusWriter captures the status code and body size of a response so the
// server-side recorder can classify the op after the handler returns.
// Flush and Hijack reach the wrapped writer through Unwrap
// (http.ResponseController); the injector's dribbles and resets need them.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	reset  bool // connection hijacked and closed: no response at all
}

var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// opName maps a request to the recorder's op label; key is empty for a
// bucket-level (or unparsable) path.
func opName(r *http.Request, key string) string {
	if key == "" {
		if r.Method == http.MethodPost {
			if batch := r.URL.Query().Get("batch"); batch != "" {
				return "batch_" + batch
			}
		}
		if r.Method == http.MethodDelete {
			return "clear"
		}
		return "list"
	}
	switch r.Method {
	case http.MethodGet:
		return "get"
	case http.MethodHead:
		return "head"
	case http.MethodPut:
		return "put"
	case http.MethodDelete:
		return "delete"
	default:
		return strings.ToLower(r.Method)
	}
}

// handleAPI wraps handle with server-side observability: per-op latency
// recording (5xx and resets count as failure — 404/304/412 are protocol
// outcomes, not server faults) and X-Request-Id echo for request
// correlation. The path is parsed here, once, for both.
func (s *Server) handleAPI(w http.ResponseWriter, r *http.Request) {
	if rid := r.Header["X-Request-Id"]; len(rid) > 0 && rid[0] != "" {
		w.Header()["X-Request-Id"] = rid[:1]
	}
	sw := statusWriters.Get().(*statusWriter)
	*sw = statusWriter{ResponseWriter: w}
	start := time.Now()
	bucket, key, ok := parsePath(r.URL.EscapedPath())
	s.handle(sw, r, bucket, key, ok)
	n := sw.bytes
	if n == 0 && r.ContentLength > 0 {
		n = int(r.ContentLength)
	}
	s.rec.Record(opName(r, key), time.Since(start), n, sw.status >= 500 || sw.reset)
	sw.ResponseWriter = nil
	statusWriters.Put(sw)
}

// Addr returns the server's base URL ("http://127.0.0.1:port").
func (s *Server) Addr() string { return "http://" + s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// etagOf computes a content hash used as the entity tag.
func etagOf(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return formatETag(h.Sum64())
}

// formatETag renders fmt.Sprintf("%q", fmt.Sprintf("%016x", h)).
func formatETag(h uint64) string {
	var b [18]byte
	b[0], b[17] = '"', '"'
	for i := 16; i > 0; i-- {
		b[i] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return string(b[:])
}

// parsePath splits /v1/{bucket}[/{key}] using the escaped path so keys
// containing '/' survive as single escaped segments.
func parsePath(escaped string) (bucket, key string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(escaped, "/"), "v1/")
	b, k, hasKey := strings.Cut(rest, "/")
	if !ok || b == "" || strings.Contains(k, "/") {
		return "", "", false
	}
	bucket, err := url.PathUnescape(b)
	if err != nil {
		return "", "", false
	}
	if hasKey {
		if key, err = url.PathUnescape(k); err != nil {
			return "", "", false
		}
	}
	return bucket, key, true
}

func (s *Server) handle(w *statusWriter, r *http.Request, bucket, key string, ok bool) {
	if s.injectFault(w) {
		return
	}
	if !ok {
		http.Error(w, "bad path", http.StatusBadRequest)
		return
	}
	if key == "" {
		s.handleBucket(w, r, bucket)
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, err := readBody(r.Body, r.ContentLength)
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		time.Sleep(s.model.delay(len(body)))
		etag := etagOf(body)
		ifMatch := r.Header.Get("If-Match")
		createOnly := r.Header.Get("If-None-Match") == "*"
		s.mu.Lock()
		b := s.buckets[bucket]
		if b == nil {
			b = make(map[string]object)
			s.buckets[bucket] = b
		}
		cur, exists := b[key]
		switch {
		case createOnly && exists:
			s.mu.Unlock()
			http.Error(w, "object exists", http.StatusPreconditionFailed)
			return
		case ifMatch != "" && (!exists || cur.etag != ifMatch):
			s.mu.Unlock()
			http.Error(w, "precondition failed", http.StatusPreconditionFailed)
			return
		}
		b[key] = object{data: body, etag: etag}
		s.mu.Unlock()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusCreated)

	case http.MethodGet, http.MethodHead:
		s.mu.RLock()
		obj, found := s.buckets[bucket][key]
		s.mu.RUnlock()
		if !found {
			time.Sleep(s.model.delay(0))
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" && inm == obj.etag {
			// Revalidation hit: no body transferred (Fig. 7's "data is
			// current" reply) — the delay reflects an empty payload.
			time.Sleep(s.model.delay(0))
			w.Header().Set("ETag", obj.etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", obj.etag)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(obj.data)))
		if r.Method == http.MethodHead { // no body transferred either
			time.Sleep(s.model.delay(0))
			w.WriteHeader(http.StatusOK)
			return
		}
		time.Sleep(s.model.delay(len(obj.data)))
		s.writeBody(w, obj.data)

	case http.MethodDelete:
		time.Sleep(s.model.delay(0))
		s.mu.Lock()
		_, found := s.buckets[bucket][key]
		if found {
			delete(s.buckets[bucket], key)
		}
		s.mu.Unlock()
		if !found {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleBucket(w http.ResponseWriter, r *http.Request, bucket string) {
	switch r.Method {
	case http.MethodGet: // list keys, optionally filtered by ?prefix=
		time.Sleep(s.model.delay(0))
		prefix := r.URL.Query().Get("prefix")
		s.mu.RLock()
		keys := make([]string, 0, len(s.buckets[bucket]))
		for k := range s.buckets[bucket] {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		s.mu.RUnlock()
		sort.Strings(keys)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(keys)

	case http.MethodDelete: // clear bucket
		time.Sleep(s.model.delay(0))
		s.mu.Lock()
		delete(s.buckets, bucket)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)

	case http.MethodPost: // bulk operations
		switch r.URL.Query().Get("batch") {
		case "get":
			s.handleBatchGet(w, r, bucket)
		case "put":
			s.handleBatchPut(w, r, bucket)
		default:
			http.Error(w, "unknown batch mode", http.StatusBadRequest)
		}

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// batchObject is one entry of the bulk wire format. Value marshals as
// base64 (encoding/json's []byte convention); replies to batch=put omit it.
type batchObject struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
	ETag  string `json:"etag,omitempty"`
}

// handleBatchGet serves POST /v1/{bucket}?batch=get: N objects in one
// request. The whole exchange costs one WAN round trip plus the bandwidth
// term for the combined payload — the amortization that makes client-side
// batching worthwhile — instead of the N round trips per-key GETs pay.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request, bucket string) {
	var keys []string
	if err := json.NewDecoder(r.Body).Decode(&keys); err != nil {
		http.Error(w, "bad batch body", http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	objs := make([]batchObject, 0, len(keys))
	total := 0
	for _, k := range keys {
		if obj, found := s.buckets[bucket][k]; found {
			objs = append(objs, batchObject{Key: k, Value: obj.data, ETag: obj.etag})
			total += len(obj.data)
		}
	}
	s.mu.RUnlock()
	time.Sleep(s.model.delay(total))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(objs)
}

// handleBatchPut serves POST /v1/{bucket}?batch=put: N writes in one
// request, one WAN round trip for the combined payload. The reply carries
// each object's new ETag so clients can cache what they just wrote.
func (s *Server) handleBatchPut(w http.ResponseWriter, r *http.Request, bucket string) {
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	var objs []batchObject
	if err := json.Unmarshal(body, &objs); err != nil {
		http.Error(w, "bad batch body", http.StatusBadRequest)
		return
	}
	for _, o := range objs {
		if o.Key == "" {
			http.Error(w, "empty key in batch", http.StatusBadRequest)
			return
		}
	}
	time.Sleep(s.model.delay(len(body)))
	results := make([]batchObject, 0, len(objs))
	s.mu.Lock()
	b := s.buckets[bucket]
	if b == nil {
		b = make(map[string]object)
		s.buckets[bucket] = b
	}
	for _, o := range objs {
		etag := etagOf(o.Value)
		b[o.Key] = object{data: o.Value, etag: etag}
		results = append(results, batchObject{Key: o.Key, ETag: etag})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(results)
}
