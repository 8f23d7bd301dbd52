package topo

import (
	"reflect"
	"strings"
	"testing"
)

// TestMapLayouts walks the node arithmetic's edge cases: a rank count the
// node size does not divide, node sizes at and past both ends, and
// placements that move the leaders.
func TestMapLayouts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p, ns     int
		placement []int
		nodeSize  int     // normalised
		members   [][]int // per node, slot order
		relay     bool
	}{
		{"7 in nodes of 3", 7, 3, nil, 3, [][]int{{0, 1, 2}, {3, 4, 5}, {6}}, true},
		{"7 in nodes of 3, reversed", 7, 3, []int{6, 5, 4, 3, 2, 1, 0}, 3,
			[][]int{{6, 5, 4}, {3, 2, 1}, {0}}, true},
		{"7 in nodes of 3, scattered", 7, 3, []int{3, 0, 6, 1, 4, 2, 5}, 3,
			[][]int{{1, 3, 5}, {0, 4, 6}, {2}}, true},
		{"node size 0", 4, 0, nil, 1, [][]int{{0}, {1}, {2}, {3}}, false},
		{"node size 1, permuted", 4, 1, []int{2, 3, 0, 1}, 1, [][]int{{2}, {3}, {0}, {1}}, false},
		{"node size p", 4, 4, []int{1, 0, 3, 2}, 4, [][]int{{1, 0, 3, 2}}, false},
		{"node size past p", 4, 9, nil, 4, [][]int{{0, 1, 2, 3}}, false},
		{"one rank", 1, 3, nil, 1, [][]int{{0}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.p, tc.ns, tc.placement)
			if err != nil {
				t.Fatal(err)
			}
			if m.Ranks() != tc.p || m.NodeSize() != tc.nodeSize || m.Nodes() != len(tc.members) {
				t.Fatalf("ranks/nodeSize/nodes %d/%d/%d, want %d/%d/%d",
					m.Ranks(), m.NodeSize(), m.Nodes(), tc.p, tc.nodeSize, len(tc.members))
			}
			for k, want := range tc.members {
				if got := m.Members(k); !reflect.DeepEqual(got, want) {
					t.Errorf("Members(%d) = %v, want %v", k, got, want)
				}
				if m.Leader(k) != want[0] {
					t.Errorf("Leader(%d) = %d, want %d", k, m.Leader(k), want[0])
				}
				for _, q := range want {
					if m.NodeOf(q) != k || !m.SameNode(q, want[0]) {
						t.Errorf("rank %d: NodeOf %d, want %d", q, m.NodeOf(q), k)
					}
				}
			}
			if m.Nodes() > 1 && m.SameNode(tc.members[0][0], tc.members[1][0]) {
				t.Error("leaders of nodes 0 and 1 share a node")
			}
			if m.Relay(true) != tc.relay || m.Relay(false) {
				t.Errorf("Relay(true)=%v Relay(false)=%v, want %v false", m.Relay(true), m.Relay(false), tc.relay)
			}
		})
	}
	big, err := New(MaxRelayRanks+1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if big.Relay(true) {
		t.Error("relay plan active past the uint16 rank fields")
	}
}

func TestNewRejects(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         int
		placement []int
		want      string
	}{
		{"no ranks", 0, nil, "0 ranks"},
		{"short", 3, []int{0, 1}, "2 entries, want 3"},
		{"long", 2, []int{0, 1, 2}, "3 entries, want 2"},
		{"negative slot", 3, []int{0, -1, 2}, "out of range"},
		{"slot past p", 3, []int{0, 3, 1}, "out of range"},
		{"duplicate slot", 3, []int{0, 2, 2}, "assigned twice"},
	} {
		if _, err := New(tc.p, 2, tc.placement); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRouteByHand prices a three-cell matrix on 5 ranks in nodes of 2 — one
// cell inside a node, one member-to-member across nodes, one self cell —
// against frame counts written out by hand for both plans.
func TestRouteByHand(t *testing.T) {
	m, err := New(5, 2, nil) // nodes {0,1} {2,3} {4}
	if err != nil {
		t.Fatal(err)
	}
	cells := []Traffic{{0, 1, 100}, {1, 3, 40}, {2, 2, 7}, {4, 0, 0}}
	const h = FrameHeader

	flat, err := m.Route(cells, false)
	if err != nil {
		t.Fatal(err)
	}
	// Each rank frames every other rank: one node mate (none for rank 4).
	if want := []int64{h + 100, h, h, h, 0}; !reflect.DeepEqual(flat.Intra, want) {
		t.Errorf("flat intra %v, want %v", flat.Intra, want)
	}
	if want := []int64{3 * h, 3*h + 40, 3 * h, 3 * h, 4 * h}; !reflect.DeepEqual(flat.Inter, want) {
		t.Errorf("flat inter %v, want %v", flat.Inter, want)
	}
	if flat.InterOverhead != 16*h || flat.InterPayload != 40 {
		t.Errorf("flat overhead/payload %d/%d, want %d/40", flat.InterOverhead, flat.InterPayload, 16*h)
	}

	relay, err := m.Route(cells, true)
	if err != nil {
		t.Fatal(err)
	}
	up, cross := int64(RecordHeader(1)), int64(RecordHeader(2))
	// Rank 1 → 3 goes up to leader 0, across to leader 2, down to 3.
	wantIntra := []int64{
		h + 100 + h,     // 0: mate frame, down frame to 1
		h + h + up + 40, // 1: mate frame, up frame with one record
		h + h + up + 40, // 2: mate frame, down frame to 3 with one record
		h + h,           // 3: mate frame, empty up frame
		0,               // 4: alone on its node
	}
	if !reflect.DeepEqual(relay.Intra, wantIntra) {
		t.Errorf("relay intra %v, want %v", relay.Intra, wantIntra)
	}
	if want := []int64{2*h + cross + 40, 0, 2 * h, 0, 2 * h}; !reflect.DeepEqual(relay.Inter, want) {
		t.Errorf("relay inter %v, want %v", relay.Inter, want)
	}
	if relay.InterOverhead != 6*h+cross {
		t.Errorf("relay inter overhead %d, want %d", relay.InterOverhead, 6*h+cross)
	}
	for name, got := range map[string][]int64{
		"IntraSend": relay.IntraSend, "IntraRecv": relay.IntraRecv,
		"InterSend": relay.InterSend, "InterRecv": relay.InterRecv,
	} {
		want := map[string][]int64{
			"IntraSend": {100, 40, 7 + 40, 0, 0}, "IntraRecv": {40, 100, 7, 40, 0},
			"InterSend": {40, 0, 0, 0, 0}, "InterRecv": {0, 0, 40, 0, 0},
		}[name]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("relay %s %v, want %v", name, got, want)
		}
	}

	if _, err := m.Route([]Traffic{{0, 5, 1}}, false); err == nil {
		t.Error("out-of-range cell routed")
	}
}
