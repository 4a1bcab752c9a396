package minisql

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// faultDisk is the test side of the file seam (file.go): it opens the real
// files and wraps them so that every mutating call the engine issues —
// WriteAt, Truncate and Sync on data.db, wal.log and the directory — is
// recorded in issue order and can first be failed, cut short or stalled.
// Pipeline leadership serializes the engine's mutating calls, so issue order
// is the order they reach the files in.
type faultDisk struct {
	mu    sync.Mutex
	ops   []diskOp
	acked int64 // see ack; stamped on every recorded call

	// fault, when set, sees each call before it reaches the file; it runs
	// outside mu, so it may block. A non-nil error fails the call, after the
	// first short bytes of a write went through.
	fault func(op diskOp) (short int, err error)
}

type opKind byte

const (
	opWrite    opKind = 'w'
	opTruncate opKind = 't'
	opSync     opKind = 's'
)

// Names a diskOp carries: the two files by base name, and the directory.
const (
	dataFile = "data.db"
	walFile  = "wal.log"
	dirEntry = "dir"
)

// diskOp is one mutating call, as far as it reached the file: a write that
// was cut short records the bytes that went through, a call that failed
// outright is not recorded.
type diskOp struct {
	file  string
	kind  opKind
	off   int64  // opWrite: offset; opTruncate: new size
	data  []byte // opWrite: the bytes, copied
	acked int64  // faultDisk.acked when the call was issued
}

func (d *faultDisk) open(name string, flag int, perm fs.FileMode) (file, error) {
	f, err := openOSFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	if flag&os.O_RDWR == 0 {
		base = dirEntry // the engine opens only the directory read-only
	}
	return &faultFile{file: f, d: d, name: base}, nil
}

// ack raises the progress mark stamped on every later call: the workload
// calls it with what it has seen acknowledged, so a crash image cut before a
// call must contain at least that call's mark.
func (d *faultDisk) ack(n int64) {
	d.mu.Lock()
	if n > d.acked {
		d.acked = n
	}
	d.mu.Unlock()
}

// issue passes op by the fault function and records what is about to reach
// the file.
func (d *faultDisk) issue(op diskOp) (short int, err error) {
	d.mu.Lock()
	fault := d.fault
	d.mu.Unlock()
	if fault != nil {
		short, err = fault(op)
	}
	if err != nil {
		if op.kind != opWrite || short == 0 {
			return 0, err
		}
		op.data = op.data[:short]
	}
	d.mu.Lock()
	op.acked = d.acked
	d.ops = append(d.ops, op)
	d.mu.Unlock()
	return short, err
}

// setFault installs (or, with nil, removes) the fault function.
func (d *faultDisk) setFault(fault func(op diskOp) (int, error)) {
	d.mu.Lock()
	d.fault = fault
	d.mu.Unlock()
}

// recorded returns the calls issued so far.
func (d *faultDisk) recorded() []diskOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops[:len(d.ops):len(d.ops)]
}

type faultFile struct {
	file
	d    *faultDisk
	name string
}

func (f *faultFile) WriteAt(b []byte, off int64) (int, error) {
	short, err := f.d.issue(diskOp{file: f.name, kind: opWrite, off: off, data: append([]byte(nil), b...)})
	if err != nil {
		n, _ := f.file.WriteAt(b[:short], off)
		return n, err
	}
	return f.file.WriteAt(b, off)
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.d.issue(diskOp{file: f.name, kind: opTruncate, off: size}); err != nil {
		return err
	}
	return f.file.Truncate(size)
}

func (f *faultFile) Sync() error {
	if _, err := f.d.issue(diskOp{file: f.name, kind: opSync}); err != nil {
		return err
	}
	return f.file.Sync()
}

// --- crash images ---

// killPoint is the disk after the first k recorded calls, as a crash there
// could leave it. Each file is held as its content at its last Sync plus the
// calls issued since, so that an image can keep all of them (kill −9: the
// process died, the OS still has every write) or lose a suffix (power loss).
type killPoint struct {
	k     int
	acked int64   // progress acknowledged before call k was issued
	next  *diskOp // the call the crash pre-empted; nil after the last one
	named bool    // the directory was synced: the files survive a power cut

	synced   map[string][]byte
	unsynced map[string][]diskOp
}

// before names the call a kill point pre-empted, in the terms the engine's
// I/O sequence is built of.
func (kp *killPoint) before() string {
	op := kp.next
	switch {
	case op == nil:
		return "end"
	case op.file == dirEntry:
		return "dir-sync"
	case op.file == dataFile && op.kind == opWrite:
		return "checkpoint-write"
	case op.file == dataFile:
		return "checkpoint-sync"
	case op.kind == opTruncate:
		return "wal-truncate"
	case op.kind == opSync:
		if pending := kp.unsynced[walFile]; len(pending) > 0 && pending[len(pending)-1].kind == opTruncate {
			return "wal-truncate-sync"
		}
		return "wal-sync"
	case len(op.data) != 5:
		return "wal-image"
	case op.data[0] == walBatchStart:
		return "wal-header"
	case op.data[0] == walCommitMarker:
		return "wal-marker"
	default:
		return "wal-record" // a page id below 1<<24 starts with a zero byte
	}
}

// crashImage is the content of data.db and wal.log after a crash; absent
// means the power failed before the directory sync made their names durable.
type crashImage struct {
	data, wal []byte
	absent    bool
}

func applyOp(content []byte, op diskOp) []byte {
	grow := func(n int64) {
		if short := n - int64(len(content)); short > 0 {
			content = append(content, make([]byte, short)...)
		}
	}
	switch op.kind {
	case opWrite:
		grow(op.off + int64(len(op.data)))
		copy(content[op.off:], op.data)
	case opTruncate:
		grow(op.off)
		content = content[:op.off]
	}
	return content
}

// lose returns name's content had only the first keep of its unsynced calls
// reached the disk, followed by the first cut bytes of the next one when that
// is a write.
func (kp *killPoint) lose(name string, keep, cut int) []byte {
	content := append([]byte(nil), kp.synced[name]...)
	ops := kp.unsynced[name]
	for _, op := range ops[:keep] {
		content = applyOp(content, op)
	}
	if keep < len(ops) && ops[keep].kind == opWrite && cut > 0 {
		torn := ops[keep]
		torn.data = torn.data[:cut]
		content = applyOp(content, torn)
	}
	return content
}

// killed is the kill −9 image: every call issued so far is on disk.
func (kp *killPoint) killed() crashImage {
	return crashImage{
		data: kp.lose(dataFile, len(kp.unsynced[dataFile]), 0),
		wal:  kp.lose(walFile, len(kp.unsynced[walFile]), 0),
	}
}

// powerLost is a power-loss image: each file as of its last Sync, plus the
// prefix of its later calls that pick selects. pick(n) returns a number in
// [0, n].
func (kp *killPoint) powerLost(pick func(n int) int) crashImage {
	if !kp.named {
		return crashImage{absent: true}
	}
	one := func(name string) []byte {
		ops := kp.unsynced[name]
		keep, cut := pick(len(ops)), 0
		if keep < len(ops) {
			cut = pick(len(ops[keep].data))
		}
		return kp.lose(name, keep, cut)
	}
	return crashImage{data: one(dataFile), wal: one(walFile)}
}

// killPoints calls visit for every kill point of the recorded run: before the
// first call, between every two, and after the last. final is the progress
// mark of the finished workload.
func (d *faultDisk) killPoints(final int64, visit func(kp *killPoint)) {
	ops := d.recorded()
	kp := &killPoint{synced: map[string][]byte{}, unsynced: map[string][]diskOp{}}
	for k := 0; ; k++ {
		kp.k, kp.acked, kp.next = k, final, nil
		if k < len(ops) {
			kp.acked, kp.next = ops[k].acked, &ops[k]
		}
		visit(kp)
		if k == len(ops) {
			return
		}
		switch op := ops[k]; {
		case op.file == dirEntry:
			kp.named = true
		case op.kind == opSync:
			kp.synced[op.file] = kp.lose(op.file, len(kp.unsynced[op.file]), 0)
			kp.unsynced[op.file] = nil
		default:
			kp.unsynced[op.file] = append(kp.unsynced[op.file], op)
		}
	}
}

// writeTo lays the image's files down in dir.
func (img crashImage) writeTo(t *testing.T, dir string) {
	t.Helper()
	if img.absent {
		return
	}
	for name, content := range map[string][]byte{dataFile: img.data, walFile: img.wal} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// reopen opens the image in a fresh directory with the operating system's
// files, as a restarted process would.
func (img crashImage) reopen(t *testing.T) (*Database, error) {
	t.Helper()
	dir := t.TempDir()
	img.writeTo(t, dir)
	return Open(dir, Options{})
}

// mustReopen is reopen for images that have to recover; the database is
// closed with the test.
func mustReopen(t *testing.T, img crashImage) *Database {
	t.Helper()
	db, err := img.reopen(t)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// crashCopy is the kill −9 image of a live database's directory: the files as
// they are, without the checkpoint a clean Close would run.
func crashCopy(t *testing.T, dir string) crashImage {
	t.Helper()
	var img crashImage
	var err error
	if img.data, err = os.ReadFile(filepath.Join(dir, dataFile)); err != nil {
		t.Fatal(err)
	}
	if img.wal, err = os.ReadFile(filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	return img
}
