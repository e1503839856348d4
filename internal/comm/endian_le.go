//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package comm

// nativeLittleEndian reports whether a float64 in memory is laid out as an
// F64 frame lays it out. It is a constant of the build, so an F64 body over
// a vector's own memory costs no call (AsF64Body inlines).
const nativeLittleEndian = true
