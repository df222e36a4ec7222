package dnn

import "testing"

// SetTier lets the external tests of this package (which may import the
// simulator) force a kernel tier for the rest of a test.
func SetTier(t testing.TB, avx2 bool) { setTier(t, avx2) }
