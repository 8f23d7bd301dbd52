//go:build !amd64

package align

import "gnbody/internal/seq"

// Off amd64 there is no vector row loop: extendRows runs every row.
var useAVX2 = false

// extendRowsAVX2 is never selected here; it runs the Go loop so the call in
// Workspace.extend compiles on every architecture.
func extendRowsAVX2(st *rowsState) { extendRows(st) }

// buildProfileAVX2 is never selected here; it fills the same columns one
// at a time so the call in buildProfile compiles on every architecture.
func buildProfileAVX2(prof []int32, stride int, bases seq.Seq, rev bool, sub *subTable) {
	for k, cb := range bases {
		if rev {
			cb = bases[len(bases)-1-k]
		}
		for c := range sub {
			prof[c*stride+k] = sub[c][min(cb, seq.N)]
		}
	}
}
