package model

import "testing"

// TestDefaultModelZeroAllocs pins the default-backend memo: every
// request that omits the model field resolves through
// New("", 0, 0, nil), cache hits included, so building the default
// instance must not allocate. Every spelling of the paper defaults
// shares the one instance.
func TestDefaultModelZeroAllocs(t *testing.T) {
	first, _, err := New("", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := New("", 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("New(\"\", 0, 0, nil) allocates %.0f allocs/op, want 0", allocs)
	}
	for _, name := range []string{"chung", "CHUNG"} {
		m, _, err := New(name, 1.75, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m != first {
			t.Errorf("New(%q, 1.75, 16, nil) built a fresh instance, want the shared default", name)
		}
	}
	if m, _, _ := New("", 2, 0, nil); m == first {
		t.Error("a non-default alpha must not reuse the default instance")
	}
}
