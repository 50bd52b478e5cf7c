// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the foundation every hardware and software model in this
// repository is built on: the SeaStar ASIC, its firmware, the host operating
// systems and the benchmark processes all advance a single virtual clock by
// scheduling events on one heap. Determinism is a hard requirement — the
// same program must produce bit-identical virtual-time results on every run
// — so ties are broken by insertion order, and the kernel itself draws no
// random numbers: models that need them (fault planes, link retries) carry
// their own seeded generators.
package sim

import "fmt"

// Time is a point in virtual time, in integer picoseconds.
//
// Picoseconds keep every rate in the modeled system exact in integer
// arithmetic: a 2.5 GB/s SeaStar link moves one byte in exactly 400 ps, an
// 800 MHz HyperTransport clock tick is 1250 ps, and a 500 MHz PowerPC cycle
// is 2000 ps. An int64 of picoseconds covers about 106 days of virtual time,
// far beyond any benchmark horizon.
//
// Time doubles as a duration; differences and sums of Time values are
// meaningful in the obvious way.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel meaning "no deadline". It is far enough in the future
// that no simulation reaches it.
const Never Time = 1<<63 - 1

// Nanos returns t as floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with a unit chosen by magnitude, e.g. "5.39us".
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanos())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// BytesAt returns the time needed to move n bytes at the given rate in
// bytes per second. It rounds up so that a transfer never finishes early.
func BytesAt(n int64, bytesPerSecond int64) Time {
	if n <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	if n <= 9_000_000 {
		// n * Second fits in int64: one ceiling division, identical to the
		// overflow-safe split below. Covers every packet- and chunk-sized
		// call on the hot path.
		return Time((n*int64(Second) + bytesPerSecond - 1) / bytesPerSecond)
	}
	// n bytes / (B/s) = n/bps seconds = n * 1e12 / bps picoseconds.
	// Compute in a way that avoids overflow for n up to tens of GB:
	// split into whole seconds and remainder.
	whole := n / bytesPerSecond
	rem := n % bytesPerSecond
	t := Time(whole) * Second
	// rem * 1e12 can overflow for bps > ~9.2e6 with rem near bps; use
	// 128-bit-ish split: rem*Second/bps with rem < bps <= ~1e10 means
	// rem*1e12 < 1e22 which overflows int64. Do it in two steps.
	const half = 1_000_000 // 1e6 * 1e6 = 1e12
	hi := (rem * half) / bytesPerSecond
	lo := ((rem*half)%bytesPerSecond)*half + bytesPerSecond - 1
	t += Time(hi*half + lo/bytesPerSecond)
	return t
}

// Cycles returns the duration of n cycles of a clock running at hz.
func Cycles(n int64, hz int64) Time {
	if n <= 0 || hz <= 0 {
		return 0
	}
	return BytesAt(n, hz) // same math: n ticks at hz ticks/second
}
