//go:build amd64

#include "textflag.h"

// AVX2 tier of the layer primitives (kernels.go). Every lane performs the
// same IEEE-754 operations, in the same per-element order, as the plain Go
// loops. The multiply/add chains are VMULPD then VADDPD, never FMA; the
// sigmoid is the one place that fuses, exactly where fmath.Exp calls
// math.FMA.

// COLS4 accumulates four consecutive fan-in columns of one 4-row block into
// ACC (lane r = row r of the block). P points at the block's first row at
// the current column; R9 = row stride in bytes, R11 = 3*R9. Two 16-byte
// loads per row pair are merged with VINSERTF128 and interleaved with
// VUNPCK{L,H}PD, which yields each column as [row0 row1 row2 row3].
// Y8..Y11 hold prev[j..j+3] broadcast; columns are added in ascending j.
#define COLS4(P, ACC) \
	VMOVUPD     (P), X0; \
	VINSERTF128 $1, (P)(R9*2), Y0, Y0; \
	VMOVUPD     (P)(R9*1), X1; \
	VINSERTF128 $1, (P)(R11*1), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, Y2; \
	VUNPCKHPD   Y1, Y0, Y3; \
	VMOVUPD     16(P), X4; \
	VINSERTF128 $1, 16(P)(R9*2), Y4, Y4; \
	VMOVUPD     16(P)(R9*1), X5; \
	VINSERTF128 $1, 16(P)(R11*1), Y5, Y5; \
	VUNPCKLPD   Y5, Y4, Y6; \
	VUNPCKHPD   Y5, Y4, Y7; \
	VMULPD      Y8, Y2, Y2; \
	VADDPD      Y2, ACC, ACC; \
	VMULPD      Y9, Y3, Y3; \
	VADDPD      Y3, ACC, ACC; \
	VMULPD      Y10, Y6, Y6; \
	VADDPD      Y6, ACC, ACC; \
	VMULPD      Y11, Y7, Y7; \
	VADDPD      Y7, ACC, ACC

// COL1 is COLS4 for a single column (the fan-in % 4 tail); Y8 holds the
// broadcast prev[j].
#define COL1(P, ACC) \
	VMOVSD      (P), X0; \
	VMOVHPD     (P)(R9*1), X0, X0; \
	VMOVSD      (P)(R9*2), X1; \
	VMOVHPD     (P)(R11*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VMULPD      Y8, Y0, Y0; \
	VADDPD      Y0, ACC, ACC

#define BCAST4(P) \
	VBROADCASTSD (P), Y8; \
	VBROADCASTSD 8(P), Y9; \
	VBROADCASTSD 16(P), Y10; \
	VBROADCASTSD 24(P), Y11

// sigk holds the sigmoid's constants, each broadcast to four lanes so it can
// be a memory operand: fmath.Exp's, plus the sign/abs masks, the |x| limit
// of the in-register chain and the exponent bias.
#define K4(OFF, V) \
	DATA sigk<>+OFF+0(SB)/8, V; \
	DATA sigk<>+OFF+8(SB)/8, V; \
	DATA sigk<>+OFF+16(SB)/8, V; \
	DATA sigk<>+OFF+24(SB)/8, V
K4(0, $0x8000000000000000)
K4(32, $0x7FFFFFFFFFFFFFFF)
K4(64, $700.0)
K4(96, $1.4426950408889634073599246810018920)
K4(128, $0.69314718055966295651160180568695068359375)
K4(160, $0.28235290563031577122588448175013436025525412068e-12)
K4(192, $0.0625)
K4(224, $2.4801587301587301587e-5)
K4(256, $1.9841269841269841270e-4)
K4(288, $1.3888888888888888889e-3)
K4(320, $8.3333333333333333333e-3)
K4(352, $4.1666666666666666667e-2)
K4(384, $1.6666666666666666667e-1)
K4(416, $0.5)
K4(448, $1.0)
K4(480, $2.0)
DATA sigk<>+512(SB)/8, $0x000003FF000003FF
DATA sigk<>+520(SB)/8, $0x000003FF000003FF
GLOBL sigk<>(SB), RODATA|NOPTR, $528

#define SIGNBIT   sigk<>+0(SB)
#define ABSMASK   sigk<>+32(SB)
#define SIGLIMIT  sigk<>+64(SB)
#define LOG2E     sigk<>+96(SB)
#define LN2U      sigk<>+128(SB)
#define LN2L      sigk<>+160(SB)
#define SIXTEENTH sigk<>+192(SB)
#define EXPC8     sigk<>+224(SB)
#define EXPC7     sigk<>+256(SB)
#define EXPC6     sigk<>+288(SB)
#define EXPC5     sigk<>+320(SB)
#define EXPC4     sigk<>+352(SB)
#define EXPC3     sigk<>+384(SB)
#define HALF      sigk<>+416(SB)
#define ONE       sigk<>+448(SB)
#define TWO       sigk<>+480(SB)
#define EXPBIAS   sigk<>+512(SB)

// The sigmoid 1/(1+exp(-x)) of one accumulator vector A, as steps over the
// register set (A, P, KX, KY) with KX the low half of KY: fmath.Exp's chain
// on four lanes, then the add and the divide. S1 runs a step on the one set
// of a 4-row block; S4 runs it on the four sets of a 16-row group in turn,
// so four independent chains hide each other's latency.
#define S1(STEP) STEP(Y12, Y0, X4, Y4)
#define S4(STEP) \
	STEP(Y12, Y0, X4, Y4); \
	STEP(Y13, Y1, X5, Y5); \
	STEP(Y14, Y2, X6, Y6); \
	STEP(Y15, Y3, X7, Y7)

// SIGCHECK leaves in P an all-ones lane wherever the chain does not apply:
// |x| > 700 (past it k+bias leaves the normal exponent range) or NaN.
#define SIGCHECK(A, P, KX, KY) \
	VANDPD ABSMASK, A, P; \
	VCMPPD $0x16, SIGLIMIT, P, P // NLE_UQ: not (|x| <= 700)

// a = -x; k = round-to-even(log2e*a); r = (a - k*ln2u - k*ln2l) / 16.
#define SIGREDUCE(A, P, KX, KY) \
	VXORPD       SIGNBIT, A, A; \
	VMULPD       LOG2E, A, P; \
	VCVTPD2DQY   P, KX; \
	VCVTDQ2PD    KX, P; \
	VFNMADD231PD LN2U, P, A; \
	VFNMADD231PD LN2L, P, A; \
	VMULPD       SIXTEENTH, A, A; \
	VMOVUPD      EXPC8, P

// Horner steps p = r*p + C.
#define SIGC7(A, P, KX, KY) VFMADD213PD EXPC7, A, P
#define SIGC6(A, P, KX, KY) VFMADD213PD EXPC6, A, P
#define SIGC5(A, P, KX, KY) VFMADD213PD EXPC5, A, P
#define SIGC4(A, P, KX, KY) VFMADD213PD EXPC4, A, P
#define SIGC3(A, P, KX, KY) VFMADD213PD EXPC3, A, P
#define SIGC2(A, P, KX, KY) VFMADD213PD HALF, A, P
#define SIGC1(A, P, KX, KY) VFMADD213PD ONE, A, P

// r = r*p, then one squaring step p = r+2; r = r*p.
#define SIGMUL(A, P, KX, KY) VMULPD P, A, A
#define SIGSQUARE(A, P, KX, KY) \
	VADDPD TWO, A, P; \
	VMULPD P, A, A

// The last squaring fused, r = (r+2)*r + 1 = exp(a - k*ln2); scaled by 2**k
// through the exponent field; then 1/(1+e).
#define SIGFINISH(A, P, KX, KY) \
	VADDPD      TWO, A, P; \
	VFMADD213PD ONE, P, A; \
	VPADDD      EXPBIAS, KX, KX; \
	VPMOVZXDQ   KX, KY; \
	VPSLLQ      $52, KY, KY; \
	VMULPD      KY, A, A; \
	VADDPD      ONE, A, A; \
	VMOVUPD     ONE, P; \
	VDIVPD      A, P, A

#define SIGMOID(RUN) \
	RUN(SIGREDUCE); \
	RUN(SIGC7); \
	RUN(SIGC6); \
	RUN(SIGC5); \
	RUN(SIGC4); \
	RUN(SIGC3); \
	RUN(SIGC2); \
	RUN(SIGC1); \
	RUN(SIGMUL); \
	RUN(SIGSQUARE); \
	RUN(SIGSQUARE); \
	RUN(SIGSQUARE); \
	RUN(SIGFINISH)

// func forwardLayerAVX2(w, b, prev, cur *float64, in, out int) (done int)
//
// cur[i] = F(b[i] + Σ_j w[i*in+j]*prev[j]), j ascending, F the sigmoid;
// requires out >= 4. Lanes are output neurons. Rows go sixteen at a time
// (four independent add chains keep the FP pipes busy), then four at a
// time; when out is not a multiple of 4 the last block backs up to start at
// out-4 and recomputes up to three rows to the identical values, so no row
// takes a scalar path. The sigmoid is applied to the accumulators before
// they are stored. A group holding a lane the in-register chain does not
// cover stops the kernel before that group's store: done is the number of
// leading rows finished, and the caller's loop does the rest.
TEXT ·forwardLayerAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI           // SI, DX, DI: cursors at the current row
	MOVQ b+8(FP), DX
	MOVQ prev+16(FP), BX
	MOVQ cur+24(FP), DI
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), R8        // rows left
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R11

rows16:
	CMPQ R8, $16
	JB   rows4
	MOVQ SI, R10               // R10, R12, AX, R14: row 0 of the four blocks
	LEAQ (R10)(R9*4), R12
	LEAQ (R12)(R9*4), AX
	LEAQ (AX)(R9*4), R14
	VMOVUPD (DX), Y12
	VMOVUPD 32(DX), Y13
	VMOVUPD 64(DX), Y14
	VMOVUPD 96(DX), Y15
	MOVQ BX, R15
	MOVQ CX, R13
	SHRQ $2, R13
	JZ   tail16

cols16:
	BCAST4(R15)
	COLS4(R10, Y12)
	COLS4(R12, Y13)
	COLS4(AX, Y14)
	COLS4(R14, Y15)
	ADDQ $32, R10
	ADDQ $32, R12
	ADDQ $32, AX
	ADDQ $32, R14
	ADDQ $32, R15
	DECQ R13
	JNZ  cols16

tail16:
	MOVQ CX, R13
	ANDQ $3, R13
	JZ   store16

tcols16:
	VBROADCASTSD (R15), Y8
	COL1(R10, Y12)
	COL1(R12, Y13)
	COL1(AX, Y14)
	COL1(R14, Y15)
	ADDQ $8, R10
	ADDQ $8, R12
	ADDQ $8, AX
	ADDQ $8, R14
	ADDQ $8, R15
	DECQ R13
	JNZ  tcols16

store16:
	S4(SIGCHECK)
	VORPD     Y1, Y0, Y0
	VORPD     Y3, Y2, Y2
	VORPD     Y2, Y0, Y0
	VMOVMSKPD Y0, R13
	TESTQ     R13, R13
	JNZ       done
	SIGMOID(S4)
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y15, 96(DI)
	LEAQ (R14)(R11*1), SI      // R14 walked one row: +3 rows = next group
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $16, R8
	JMP  rows16

rows4:
	TESTQ R8, R8
	JZ    done
	CMPQ  R8, $4
	JAE   block4
	MOVQ  $4, AX               // 1..3 rows left: back the cursors up so the
	SUBQ  R8, AX               // last block ends exactly at row out-1
	SHLQ  $3, AX
	SUBQ  AX, DX
	SUBQ  AX, DI
	IMULQ CX, AX
	SUBQ  AX, SI
	MOVQ  $4, R8

block4:
	MOVQ SI, R10
	VMOVUPD (DX), Y12
	MOVQ BX, R15
	MOVQ CX, R13
	SHRQ $2, R13
	JZ   tail4

cols4:
	BCAST4(R15)
	COLS4(R10, Y12)
	ADDQ $32, R10
	ADDQ $32, R15
	DECQ R13
	JNZ  cols4

tail4:
	MOVQ CX, R13
	ANDQ $3, R13
	JZ   store4

tcols4:
	VBROADCASTSD (R15), Y8
	COL1(R10, Y12)
	ADDQ $8, R10
	ADDQ $8, R15
	DECQ R13
	JNZ  tcols4

store4:
	S1(SIGCHECK)
	VMOVMSKPD Y0, R13
	TESTQ     R13, R13
	JNZ       done
	SIGMOID(S1)
	VMOVUPD Y12, (DI)
	LEAQ (R10)(R11*1), SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, R8
	JMP  rows4

done:
	MOVQ out+40(FP), AX        // R8 rows are left, counting a refused group
	SUBQ R8, AX
	MOVQ AX, done+48(FP)
	VZEROUPPER
	RET

// tailmask+8*(4-r) is the 4-lane mask selecting the first r lanes: the
// fan-in % 4 tail of a row runs as one more chunk through VMASKMOVPD, whose
// masked-off lanes load as zero and are never stored.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads into Y7 the mask for N's low two bits, leaving them in N.
#define TAILMASK(N, TMP) \
	ANDQ $3, N; \
	LEAQ tailmask<>+32(SB), TMP; \
	NEGQ N; \
	VMOVDQU (TMP)(N*8), Y7; \
	NEGQ N

// BPROW applies one weight row to the 4-lane chunk at byte offset AX:
// Y4 (the tmp chunk) += D*w and w += S*Y5 (the prev chunk), the product for
// tmp taken from the weight as loaded, before its update is stored. BPROWM
// is the same under the lane mask Y7.
#define BPROW(ROW, D, S) \
	VMOVUPD (ROW)(AX*1), Y2; \
	VMULPD  D, Y2, Y3; \
	VADDPD  Y3, Y4, Y4; \
	VMULPD  Y5, S, Y6; \
	VADDPD  Y6, Y2, Y2; \
	VMOVUPD Y2, (ROW)(AX*1)

#define BPROWM(ROW, D, S) \
	VMASKMOVPD (ROW)(AX*1), Y7, Y2; \
	VMULPD  D, Y2, Y3; \
	VADDPD  Y3, Y4, Y4; \
	VMULPD  Y5, S, Y6; \
	VADDPD  Y6, Y2, Y2; \
	VMASKMOVPD Y2, Y7, (ROW)(AX*1)

// STEP computes one row's step = rate*delta[j] (rate in X0) at byte offset
// OFF of the delta/bias cursors, adds it to the bias, and leaves delta[j]
// and step broadcast in D and S.
#define STEP(OFF, D, S) \
	VMOVSD OFF(R8), X2; \
	VMULSD X2, X0, X3; \
	VBROADCASTSD X2, D; \
	VBROADCASTSD X3, S; \
	VADDSD OFF(DX), X3, X3; \
	VMOVSD X3, OFF(DX)

// func backpropUpdateAVX2(w, b, delta, prev, tmp *float64, in, out int, rate float64)
//
// Rows j ascending: tmp[i] += delta[j]*w[j*in+i]; w[j*in+i] += (rate*delta[j])*prev[i];
// b[j] += rate*delta[j]. Lanes are fan-in indices i. Four rows share one
// load and store of each tmp/prev chunk; within a chunk they are still
// applied in ascending j, which is each tmp[i]'s whole add chain.
TEXT ·backpropUpdateAVX2(SB), NOSPLIT, $0-64
	MOVQ  w+0(FP), SI
	MOVQ  b+8(FP), DX
	MOVQ  delta+16(FP), R8
	MOVQ  prev+24(FP), BX
	MOVQ  tmp+32(FP), DI
	MOVQ  in+40(FP), CX
	MOVQ  out+48(FP), R9       // rows left
	VMOVSD rate+56(FP), X0
	MOVQ  CX, R10
	ANDQ  $-4, R10
	SHLQ  $3, R10              // byte offset of the masked tail chunk
	MOVQ  CX, R14
	TAILMASK(R14, R13)         // R14 = in % 4
	SHLQ  $3, CX               // row stride in bytes

bprows4:
	CMPQ R9, $4
	JB   bprows1
	LEAQ (SI)(CX*1), R11       // SI, R11, R12, R13: the block's four rows
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	STEP(0, Y8, Y12)
	STEP(8, Y9, Y13)
	STEP(16, Y10, Y14)
	STEP(24, Y11, Y15)
	XORQ AX, AX
	JMP  bpchunk4test

bpchunk4:
	VMOVUPD (DI)(AX*1), Y4
	VMOVUPD (BX)(AX*1), Y5
	BPROW(SI, Y8, Y12)
	BPROW(R11, Y9, Y13)
	BPROW(R12, Y10, Y14)
	BPROW(R13, Y11, Y15)
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX

bpchunk4test:
	CMPQ AX, R10
	JB   bpchunk4
	TESTQ R14, R14
	JZ    bpnext4
	VMASKMOVPD (DI)(AX*1), Y7, Y4
	VMASKMOVPD (BX)(AX*1), Y7, Y5
	BPROWM(SI, Y8, Y12)
	BPROWM(R11, Y9, Y13)
	BPROWM(R12, Y10, Y14)
	BPROWM(R13, Y11, Y15)
	VMASKMOVPD Y4, Y7, (DI)(AX*1)

bpnext4:
	LEAQ (R13)(CX*1), SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $4, R9
	JMP  bprows4

bprows1:
	TESTQ R9, R9
	JZ    bpdone
	STEP(0, Y8, Y12)
	XORQ AX, AX
	JMP  bpchunk1test

bpchunk1:
	VMOVUPD (DI)(AX*1), Y4
	VMOVUPD (BX)(AX*1), Y5
	BPROW(SI, Y8, Y12)
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX

bpchunk1test:
	CMPQ AX, R10
	JB   bpchunk1
	TESTQ R14, R14
	JZ    bpnext1
	VMASKMOVPD (DI)(AX*1), Y7, Y4
	VMASKMOVPD (BX)(AX*1), Y7, Y5
	BPROWM(SI, Y8, Y12)
	VMASKMOVPD Y4, Y7, (DI)(AX*1)

bpnext1:
	ADDQ CX, SI
	ADDQ $8, DX
	ADDQ $8, R8
	DECQ R9
	JMP  bprows1

bpdone:
	VZEROUPPER
	RET

// SGROW is BPROW without the error term: w += S*Y5 at byte offset AX.
#define SGROW(ROW, S) \
	VMULPD  Y5, S, Y6; \
	VADDPD  (ROW)(AX*1), Y6, Y2; \
	VMOVUPD Y2, (ROW)(AX*1)

#define SGROWM(ROW, S) \
	VMASKMOVPD (ROW)(AX*1), Y7, Y2; \
	VMULPD  Y5, S, Y6; \
	VADDPD  Y6, Y2, Y2; \
	VMASKMOVPD Y2, Y7, (ROW)(AX*1)

// func sgdUpdateAVX2(w, b, delta, prev *float64, in, out int, rate float64)
//
// Rows i ascending: w[i*in+j] += (rate*delta[i])*prev[j]; b[i] += rate*delta[i].
// Lanes are fan-in indices j; four rows share each load of a prev chunk.
// (STEP's delta broadcasts, Y8..Y11, go unused here.)
TEXT ·sgdUpdateAVX2(SB), NOSPLIT, $0-56
	MOVQ  w+0(FP), SI
	MOVQ  b+8(FP), DX
	MOVQ  delta+16(FP), R8
	MOVQ  prev+24(FP), BX
	MOVQ  in+32(FP), CX
	MOVQ  out+40(FP), R9       // rows left
	VMOVSD rate+48(FP), X0
	MOVQ  CX, R10
	ANDQ  $-4, R10
	SHLQ  $3, R10              // byte offset of the masked tail chunk
	MOVQ  CX, R14
	TAILMASK(R14, R13)         // R14 = in % 4
	SHLQ  $3, CX               // row stride in bytes

sgrows4:
	CMPQ R9, $4
	JB   sgrows1
	LEAQ (SI)(CX*1), R11       // SI, R11, R12, R13: the block's four rows
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	STEP(0, Y8, Y12)
	STEP(8, Y9, Y13)
	STEP(16, Y10, Y14)
	STEP(24, Y11, Y15)
	XORQ AX, AX
	JMP  sgchunk4test

sgchunk4:
	VMOVUPD (BX)(AX*1), Y5
	SGROW(SI, Y12)
	SGROW(R11, Y13)
	SGROW(R12, Y14)
	SGROW(R13, Y15)
	ADDQ $32, AX

sgchunk4test:
	CMPQ AX, R10
	JB   sgchunk4
	TESTQ R14, R14
	JZ    sgnext4
	VMASKMOVPD (BX)(AX*1), Y7, Y5
	SGROWM(SI, Y12)
	SGROWM(R11, Y13)
	SGROWM(R12, Y14)
	SGROWM(R13, Y15)

sgnext4:
	LEAQ (R13)(CX*1), SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $4, R9
	JMP  sgrows4

sgrows1:
	TESTQ R9, R9
	JZ    sgdone
	STEP(0, Y8, Y12)
	XORQ AX, AX
	JMP  sgchunk1test

sgchunk1:
	VMOVUPD (BX)(AX*1), Y5
	SGROW(SI, Y12)
	ADDQ $32, AX

sgchunk1test:
	CMPQ AX, R10
	JB   sgchunk1
	TESTQ R14, R14
	JZ    sgnext1
	VMASKMOVPD (BX)(AX*1), Y7, Y5
	SGROWM(SI, Y12)

sgnext1:
	ADDQ CX, SI
	ADDQ $8, DX
	ADDQ $8, R8
	DECQ R9
	JMP  sgrows1

sgdone:
	VZEROUPPER
	RET
