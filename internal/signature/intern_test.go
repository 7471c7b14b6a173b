package signature

import (
	"fmt"
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

// internEntries counts the strings the intern table holds.
func internEntries() int {
	n := 0
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// interned reports whether s is in the intern table.
func interned(s string) bool {
	for i := range internShards {
		sh := &internShards[i]
		sh.mu.RLock()
		_, ok := sh.m[s]
		sh.mu.RUnlock()
		if ok {
			return true
		}
	}
	return false
}

// TestInternHoldsOnlyRecurringSignatures: over 300 recurring instances,
// each with fresh input GUIDs, the table grows by the template's
// normalized signatures once and then stays put; every instance gets the
// first instance's normalized strings back, and no precise string is
// retained.
func TestInternHoldsOnlyRecurringSignatures(t *testing.T) {
	const instances = 300
	before := internEntries()
	var first []SubgraphSig
	for i := 0; i < instances; i++ {
		sigs := NewComputer().AllSubgraphs(template(fmt.Sprintf("intern-guid-%d", i), int64(i)))
		if i == 0 {
			first = sigs
			continue
		}
		for j, s := range sigs {
			want := first[j].Sig.Normalized
			if s.Sig.Normalized != want || unsafe.StringData(s.Sig.Normalized) != unsafe.StringData(want) {
				t.Fatalf("instance %d subgraph %d: normalized %q is not the canonical string", i, j, s.Sig.Normalized)
			}
		}
		if i == instances-1 {
			for j, s := range sigs {
				if interned(s.Sig.Precise) {
					t.Errorf("subgraph %d: precise signature %q retained by the intern table", j, s.Sig.Precise)
				}
			}
		}
	}
	if grew := internEntries() - before; grew > len(first) {
		t.Errorf("intern table grew by %d entries over %d instances, want at most %d (one per normalized subgraph signature)",
			grew, instances, len(first))
	}
}
