#include "textflag.h"

// func hasAVX2() bool: OSXSAVE and AVX (CPUID.1:ECX bits 27, 28), the OS
// saving XMM and YMM state (XCR0 bits 1, 2) and AVX2 (CPUID.7:EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    done
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	SETCS  ret+0(FP)
done:
	RET

// STEP sets bits bit..bit+7 of R8 for the 8 fields at SI (4 loaded from SI,
// 4 from SI+R9): lane = field-lo, which matches when min(lane, span) == lane.
#define STEP(bit) \
	VMOVDQU     (SI), X0;              \
	VINSERTI128 $1, (SI)(R9*1), Y0, Y0; \
	VPSHUFB     Y3, Y0, Y0;            \
	VPSRLVD     Y4, Y0, Y0;            \
	VPAND       Y5, Y0, Y0;            \
	VPSUBD      Y6, Y0, Y0;            \
	VPMINUD     Y7, Y0, Y1;            \
	VPCMPEQD    Y1, Y0, Y0;            \
	VMOVMSKPS   Y0, AX;                \
	SHLQ        $bit, AX;              \
	ORQ         AX, R8;                \
	ADDQ        BX, SI

// func intervalAVX2(src *byte, groups int, width uint, dst *uint64, k *avx2Width, lo, span uint32)
TEXT ·intervalAVX2(SB), NOSPLIT, $0-48
	MOVQ         src+0(FP), SI
	MOVQ         groups+8(FP), CX
	MOVQ         width+16(FP), BX
	MOVQ         dst+24(FP), DX
	MOVQ         k+32(FP), AX
	VMOVDQU      0(AX), Y3
	VMOVDQU      32(AX), Y4
	VMOVDQU      64(AX), Y5
	MOVL         lo+40(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	MOVL         span+44(FP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	MOVQ         BX, R9
	SHRQ         $1, R9
group:
	XORQ R8, R8
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	STEP(32)
	STEP(40)
	STEP(48)
	STEP(56)
	ORQ  R8, (DX)
	ADDQ $8, DX
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET
