package signature

import (
	"testing"
	"unsafe"
)

// TestInternSharesStorage pins that equal inputs, from either entry point,
// come back as one backing array.
func TestInternSharesStorage(t *testing.T) {
	first := InternBytes([]byte("intern-test-0123456789abcdef"))
	for _, got := range []string{
		InternBytes([]byte("intern-test-0123456789abcdef")),
		Intern(string([]byte("intern-test-0123456789abcdef"))),
	} {
		if got != first || unsafe.StringData(got) != unsafe.StringData(first) {
			t.Errorf("interned %q at %p, want the first instance at %p",
				got, unsafe.StringData(got), unsafe.StringData(first))
		}
	}
	s := string([]byte("intern-test-fresh-string"))
	if got := Intern(s); unsafe.StringData(got) != unsafe.StringData(s) {
		t.Error("Intern copied a string it had not seen instead of keeping it")
	}
}

// TestInternBytesHitAllocatesNothing pins the read path: a value already
// interned comes back without allocating.
func TestInternBytesHitAllocatesNothing(t *testing.T) {
	b := []byte("intern-test-hit-0123456789abcdef")
	InternBytes(b)
	if n := testing.AllocsPerRun(100, func() { InternBytes(b) }); n != 0 {
		t.Errorf("InternBytes hit allocated %v times, want 0", n)
	}
}
