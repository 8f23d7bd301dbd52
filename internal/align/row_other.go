//go:build !amd64

package align

// Off amd64 there is no vector leaf: extendRow runs every row.
var useAVX2 = false

// extendRowAVX2 is never selected here; it runs the Go leaf so the call in
// Workspace.extend compiles on every architecture.
func extendRowAVX2(row, sub []int32, best, x int32, ramp *gapRamp) (int32, int) {
	return extendRow(row, sub, ramp[0], best, x)
}
