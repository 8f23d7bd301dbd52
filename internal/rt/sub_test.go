package rt

import (
	"testing"
	"time"
)

// TestSubSemantics pins which Metrics fields subtract (monotonic counters)
// and which carry from the later snapshot (gauges and watermarks) — the
// contract job-scoped accounting on resident worlds depends on.
func TestSubSemantics(t *testing.T) {
	prev := Metrics{
		Elapsed: time.Second, CurMem: 100, BytesSent: 1000, BytesRecv: 900,
		Msgs: 10, RPCsSent: 4, RPCserved: 3, Supersteps: 2, OOPGets: 1,
		GraphFetches: 7, GraphCoalesced: 5, SWARTasks: 2,
		IntraBytes: 300, InterBytes: 700,
		MaxMem: 5000, StoreBytes: 4000,
	}
	prev.Time[CatAlign] = 2 * time.Second
	prev.Time[CatComm] = time.Second

	cur := prev
	cur.Elapsed += 3 * time.Second
	cur.CurMem += 50
	cur.BytesSent += 111
	cur.BytesRecv += 222
	cur.Msgs += 6
	cur.RPCsSent += 2
	cur.RPCserved += 2
	cur.Supersteps += 4
	cur.OOPGets += 1
	cur.GraphFetches += 3
	cur.GraphCoalesced += 1
	cur.SWARTasks += 1
	cur.IntraBytes += 30
	cur.InterBytes += 70
	cur.Time[CatAlign] += 5 * time.Second
	cur.MaxMem = 9000 // watermark moved during the job

	d := Sub(cur.Snapshot(), prev.Snapshot())
	if d.Elapsed != 3*time.Second || d.Time[CatAlign] != 5*time.Second || d.Time[CatComm] != 0 {
		t.Errorf("time fields did not subtract: elapsed=%v align=%v comm=%v", d.Elapsed, d.Time[CatAlign], d.Time[CatComm])
	}
	if d.CurMem != 50 || d.BytesSent != 111 || d.BytesRecv != 222 || d.Msgs != 6 {
		t.Errorf("counters did not subtract: %+v", d)
	}
	if d.RPCsSent != 2 || d.RPCserved != 2 || d.Supersteps != 4 || d.OOPGets != 1 {
		t.Errorf("counters did not subtract: %+v", d)
	}
	if d.GraphFetches != 3 || d.GraphCoalesced != 1 || d.SWARTasks != 1 {
		t.Errorf("graph and kernel counters did not subtract: %+v", d)
	}
	if d.IntraBytes != 30 || d.InterBytes != 70 {
		t.Errorf("tier counters did not subtract: %+v", d)
	}
	if d.MaxMem != 9000 || d.StoreBytes != 4000 {
		t.Errorf("watermarks not carried from cur: MaxMem=%d StoreBytes=%d", d.MaxMem, d.StoreBytes)
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
