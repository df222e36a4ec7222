//go:build amd64

package cpufeat

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// HasAVX2 and HasFMA report AVX2 and FMA3 with the OS saving YMM state.
// HasAVX512FDQVL reports AVX-512 F (foundation + VPCOMPRESSD), DQ (byte mask
// ops) and VL (256-bit index vectors) with the OS saving opmask and ZMM
// state. They read CPUID, not GODEBUG=cpu.*, which only steers the Go
// runtime's own choices.
var HasAVX2, HasFMA, HasAVX512FDQVL = detect()

func detect() (avx2, fma, avx512fdqvl bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false, false, false
	}
	xlo, _ := xgetbv0()
	_, b7, _, _ := cpuid(7, 0)
	const (
		xcr0AVX    = 1<<1 | 1<<2                  // SSE and AVX (YMM) state
		xcr0AVX512 = xcr0AVX | 1<<5 | 1<<6 | 1<<7 // + opmask, ZMM_Hi256, Hi16_ZMM
		bitFMA     = 1 << 12                      // leaf 1 ECX
		bitAVX2    = 1 << 5                       // leaf 7 EBX, as the AVX-512 bits below
		bitsFDQVL  = 1<<16 | 1<<17 | 1<<31        // AVX512F, AVX512DQ, AVX512VL
	)
	ymm := xlo&xcr0AVX == xcr0AVX
	avx2 = ymm && b7&bitAVX2 != 0
	fma = ymm && c1&bitFMA != 0
	avx512fdqvl = xlo&xcr0AVX512 == xcr0AVX512 && b7&bitsFDQVL == bitsFDQVL
	return avx2, fma, avx512fdqvl
}
