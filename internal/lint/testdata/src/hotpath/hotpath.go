// Package hotpath is a vmtlint fixture: every alloc-prone construct
// the //vmt:hotpath discipline bans, and the negatives (allowlisted
// callees, dynamic calls, arrays) it must accept.
package hotpath

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// plain is deliberately unmarked: calling it from a hotpath is the
// static-callee violation.
func plain() float64 { return 42 }

//vmt:hotpath
func leaf(x float64) float64 { return x + 1 }

// Negatives: marked module-local callees, the math and math/bits
// allowlist, dynamic calls through parameters, time.Duration
// arithmetic, alloc-free builtins, and fixed-size arrays are all fine.
//
//vmt:hotpath
func okCalls(xs []float64, d time.Duration, f func(float64) float64) float64 {
	y := leaf(xs[0])
	y += math.Sqrt(y)
	y += float64(bits.OnesCount64(uint64(len(xs))))
	y += f(y)
	y += d.Seconds()
	if len(xs) > 1 {
		y += xs[1]
	}
	var arr [4]float64
	arr[0] = y
	return max(arr[0], 0)
}

//vmt:hotpath
func closure() func() {
	return func() {} // want "closure literal in hotpath"
}

//vmt:hotpath
func deferred(mu interface{ Unlock() }) {
	defer mu.Unlock() // want "defer in hotpath"
}

//vmt:hotpath
func spawn() {
	go plain() // want "go statement in hotpath" "call to non-hotpath function hotpath.plain in hotpath"
}

//vmt:hotpath
func literals() ([]int, map[string]int) {
	s := []int{1}         // want "slice composite literal in hotpath"
	m := map[string]int{} // want "map composite literal in hotpath"
	return s, m
}

//vmt:hotpath
func builtins(xs []float64) []float64 {
	ys := make([]float64, 1) // want "call to builtin make in hotpath"
	return append(xs, ys[0]) // want "call to builtin append in hotpath"
}

//vmt:hotpath
func concat(a, b string) string {
	a += b       // want "string concatenation in hotpath"
	return a + b // want "string concatenation in hotpath"
}

// A banned call is one finding, not one per boxed argument.
//
//vmt:hotpath
func format(x float64) string {
	return fmt.Sprintf("%v", x) // want "call to non-hotpath function fmt.Sprintf in hotpath"
}

//vmt:hotpath
func box(x float64) any {
	var v any = x // want "assignment converts float64 to interface"
	_ = v
	return x // want "return converts float64 to interface"
}

//vmt:hotpath
func convert(x float64) float64 {
	_ = any(x) // want "conversion converts float64 to interface"
	return x
}

//vmt:hotpath
func argBox(s interface{ Store(v any) }, x float64) {
	s.Store(x) // want "argument converts float64 to interface"
}

//vmt:hotpath
func escape() func() float64 {
	g := plain // want "function value hotpath.plain escapes in hotpath"
	return g
}

//vmt:hotpath
func callsUnmarked() float64 {
	return plain() // want "call to non-hotpath function hotpath.plain in hotpath"
}

// The sanctioned escape hatch: error paths off the steady state carry
// an allow with the justification.
//
//vmt:hotpath
func allowedColdPath() float64 {
	return plain() //vmtlint:allow hotpath fixture: cold path, runs once at startup
}
