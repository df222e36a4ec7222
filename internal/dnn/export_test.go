package dnn

import "testing"

// HasAVX2Tier and SetTier let the external tests of this package (which may
// import the simulator) force a kernel tier for the rest of a test.
var HasAVX2Tier = hasAVX2Tier

func SetTier(t testing.TB, avx2 bool) { setTier(t, avx2) }
