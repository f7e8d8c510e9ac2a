#include "textflag.h"

// func probe() (avx2, fma bool)
// avx2: CPUID.1:ECX OSXSAVE+AVX, XCR0 XMM+YMM state enabled, CPUID.7.0:EBX
// AVX2. fma: avx2 and CPUID.1:ECX FMA.
TEXT ·probe(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   done
	MOVB $1, avx2+0(FP)
	ANDL $0x1000, R8
	JZ   done
	MOVB $1, fma+1(FP)
done:
	RET
