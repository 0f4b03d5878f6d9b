// Package ofwire is lint-corpus material impersonating the wire codec;
// the narrowing analyzer must flag every marked conversion and accept the
// guarded, constant and suppressed ones.
package ofwire

const maxFrame = 1 << 16

// EncodeLen wraps silently at exactly 64KiB — the PR 1 bug class.
func EncodeLen(total int) uint16 {
	return uint16(total) // want:narrowing
}

// PackPort narrows a 32-bit counter into a byte without a guard.
func PackPort(port uint32) uint8 {
	return uint8(port) // want:narrowing
}

// CheckedLen guards the range first, so the conversion is safe.
func CheckedLen(total int) (uint16, bool) {
	if total < 0 || total >= maxFrame {
		return 0, false
	}
	return uint16(total), true
}

// IgnoredLen vouches for the caller with a suppression comment.
func IgnoredLen(total int) uint16 {
	//lint:ignore narrowing corpus: caller guarantees the range
	return uint16(total)
}

// Widths that cannot lose bits are not narrowing.
func Widen(v uint8) uint16 { return uint16(v) }

// Constants that fit are fine (out-of-range constants are already
// compile errors, so the analyzer never sees them).
func Consts() (uint16, uint8) {
	return uint16(0xFFFF), uint8(255)
}

// reply is a wire struct with a one-byte count field.
type reply struct{ partitions uint8 }

// fillReply converts where clampU8 should saturate: a rule cut into 256
// fragments would report 0.
func fillReply(parts int) reply {
	return reply{partitions: uint8(parts)} // want:narrowing
}
