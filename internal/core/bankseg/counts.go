package bankseg

import (
	"encoding/binary"
	"unsafe"
)

// nativeLittleEndian reports whether the host's byte order matches the
// on-disk little-endian payload encoding, decided once at init.
var nativeLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// Uint32s reinterprets a segment payload as a []uint32 view without
// copying. It returns ok=false when the zero-copy cast is unsound — host is
// big-endian, length is not a multiple of 4, or the payload is not 4-byte
// aligned (never the case for aligned segment payloads, but checked anyway).
// Callers fall back to CopyUint32s.
func Uint32s(payload []byte) (vals []uint32, ok bool) {
	if !nativeLittleEndian || len(payload)%4 != 0 {
		return nil, false
	}
	if len(payload) == 0 {
		return []uint32{}, true
	}
	p := unsafe.Pointer(unsafe.SliceData(payload))
	if uintptr(p)%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint32)(p), len(payload)/4), true
}

// CopyUint32s decodes a little-endian uint32 payload into a fresh slice —
// the portable path for big-endian hosts and heap materialization.
func CopyUint32s(payload []byte) []uint32 {
	out := make([]uint32, len(payload)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(payload[i*4:])
	}
	return out
}

// AppendUint32s encodes vals as the little-endian payload bytes of an
// arena segment. On little-endian hosts this is one reinterpretation and
// copy; elsewhere it encodes element-wise.
func AppendUint32s(dst []byte, vals []uint32) []byte {
	if nativeLittleEndian && len(vals) > 0 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*4)
		return append(dst, raw...)
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}
