package rt

import (
	"reflect"
	"testing"
	"time"
)

// subRules states, for every Metrics field, what Sub does with it: true
// subtracts (a monotonic counter; CurMem becomes the net delta), false
// carries cur's value unchanged (a gauge or high-water mark).
var subRules = map[string]bool{
	"Time": true, "Elapsed": true, "CurMem": true, "MaxMem": false,
	"BytesSent": true, "BytesRecv": true, "Msgs": true, "RPCsSent": true,
	"RPCserved": true, "Supersteps": true,
	"StoreBytes": false, "PeakExchange": false, "PeakRPCBytes": false,
	"OOPGets": true, "IntraBytes": true, "InterBytes": true,
	"GraphFetches": true, "GraphCoalesced": true,
	"SWARTasks": true, "FallbackTasks": true, "LaneCells": true, "LaneSlots": true,
}

// TestSubSemantics pins which Metrics fields subtract and which carry from
// the later snapshot — the contract job-scoped accounting on resident
// worlds depends on. Every integer it sets (array elements included) gets
// its own before value and its own delta, so a line Sub drops or a field
// it subtracts into the wrong place shows; a field with no rule fails.
func TestSubSemantics(t *testing.T) {
	var prev, cur Metrics
	pv, cv := reflect.ValueOf(&prev).Elem(), reflect.ValueOf(&cur).Elem()
	typ := pv.Type()
	// leaves lists a field's integers: the field itself, or its elements.
	leaves := func(v reflect.Value) []reflect.Value {
		if v.Kind() != reflect.Array {
			return []reflect.Value{v}
		}
		out := make([]reflect.Value, v.Len())
		for e := range out {
			out[e] = v.Index(e)
		}
		return out
	}
	n := int64(0)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := subRules[name]; !ok {
			t.Fatalf("Metrics.%s has no rule in subRules: state whether Sub subtracts or carries it", name)
		}
		cl := leaves(cv.Field(i))
		for e, pl := range leaves(pv.Field(i)) {
			if pl.Kind() != reflect.Int64 {
				t.Fatalf("Metrics.%s is a %v, not an int64 counter", name, pl.Type())
			}
			n++
			pl.SetInt(1000 * n)
			cl[e].SetInt(1000*n + n)
		}
	}
	if len(subRules) != typ.NumField() {
		t.Errorf("subRules names %d fields, Metrics has %d", len(subRules), typ.NumField())
	}

	d := Sub(cur.Snapshot(), prev.Snapshot())
	dv := reflect.ValueOf(d)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		pl, cl := leaves(pv.Field(i)), leaves(cv.Field(i))
		for e, got := range leaves(dv.Field(i)) {
			want := cl[e].Int()
			if subRules[name] {
				want -= pl[e].Int()
			}
			if got.Int() != want {
				t.Errorf("Sub: %s[%d] = %d, want %d (subtract=%v)", name, e, got.Int(), want, subRules[name])
			}
		}
	}
}

// TestSnapshotIsValueCopy: mutating the live metrics after Snapshot must
// not move the snapshot (the before-baseline of a job).
func TestSnapshotIsValueCopy(t *testing.T) {
	var m Metrics
	m.Msgs = 5
	snap := m.Snapshot()
	m.Msgs = 50
	m.Time[CatSync] = time.Minute
	if snap.Msgs != 5 || snap.Time[CatSync] != 0 {
		t.Errorf("snapshot aliases live metrics: %+v", snap)
	}
}
