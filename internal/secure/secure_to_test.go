package secure

import (
	"bytes"
	"sync"
	"testing"

	"edsc/internal/raceflag"
)

// TestSealToAppendSemantics pins the append contract: an existing dst prefix
// survives, and the envelope lands after it.
func TestSealToAppendSemantics(t *testing.T) {
	c := testCipher(t)
	pt := []byte("the plaintext")
	dst := []byte("prefix-")
	out, err := c.SealTo(dst, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, []byte("prefix-")) {
		t.Fatalf("dst prefix clobbered: %q", out[:8])
	}
	got, err := c.Open(out[len("prefix-"):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
}

// TestOpenToAppendSemantics mirrors the seal test for the decrypt direction.
func TestOpenToAppendSemantics(t *testing.T) {
	c := testCipher(t)
	pt := []byte("another plaintext")
	env, err := c.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.OpenTo([]byte("pre:"), env)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pre:"+string(pt) {
		t.Fatalf("OpenTo = %q", out)
	}
}

// TestOpenToErrorLeavesDst: on a bad envelope dst comes back length-unchanged,
// so a caller reusing a scratch buffer never sees partial plaintext appended.
func TestOpenToErrorLeavesDst(t *testing.T) {
	c := testCipher(t)
	env, err := c.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)-1] ^= 1 // break the MAC
	dst := []byte("keep")
	out, err := c.OpenTo(dst, env)
	if err == nil {
		t.Fatal("tampered envelope accepted")
	}
	if string(out) != "keep" {
		t.Fatalf("dst modified on error: %q", out)
	}
}

// TestAllocGuardSealOpen pins SealTo and OpenTo at zero allocations each in
// steady state: the AEAD is built once per Cipher, the nonce is a counter,
// and both directions write into the caller's destination.
func TestAllocGuardSealOpen(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	c := testCipher(t)
	pt := bytes.Repeat([]byte("x"), 4096)
	var sealBuf, openBuf []byte
	seal := func() {
		out, err := c.SealTo(sealBuf[:0], pt)
		if err != nil {
			t.Fatal(err)
		}
		sealBuf = out
	}
	seal() // warm the buffer
	if allocs := testing.AllocsPerRun(200, seal); allocs != 0 {
		t.Fatalf("SealTo allocated %.1f times per op, want 0", allocs)
	}
	open := func() {
		out, err := c.OpenTo(openBuf[:0], sealBuf)
		if err != nil {
			t.Fatal(err)
		}
		openBuf = out
	}
	open()
	if allocs := testing.AllocsPerRun(200, open); allocs != 0 {
		t.Fatalf("OpenTo allocated %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentSealOpen drives one Cipher from many goroutines at once;
// under -race it proves the shared AEAD and nonce counter are safe to share.
func TestConcurrentSealOpen(t *testing.T) {
	c := testCipher(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pt := bytes.Repeat([]byte{byte('a' + g)}, 1024+g)
			var env, out []byte
			for i := 0; i < 200; i++ {
				var err error
				env, err = c.SealTo(env[:0], pt)
				if err != nil {
					t.Error(err)
					return
				}
				out, err = c.OpenTo(out[:0], env)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, pt) {
					t.Errorf("goroutine %d: round trip corrupted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
