package cpufeat

import "testing"

// TestFeatureImplications: the AVX-512 bundle is only ever reported on a
// machine that also reports AVX2 (same XCR0 prerequisites, and no CPU
// ships AVX-512 without AVX2), so a decoding slip that flips one without
// the other is caught on any AVX-512 box.
func TestFeatureImplications(t *testing.T) {
	t.Logf("HasAVX2=%v HasFMA=%v HasAVX512FDQVL=%v", HasAVX2, HasFMA, HasAVX512FDQVL)
	if HasAVX512FDQVL && !HasAVX2 {
		t.Fatal("AVX-512 F/DQ/VL reported without AVX2")
	}
}
