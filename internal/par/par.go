// Package par builds the in-process world: P goroutine ranks of the
// message-passing runtime (package dist) over the loopback fabric. It keeps
// no runtime of its own — barriers, exchanges, RPC progress and the failure
// model are dist's — only the settings that make one process one machine.
// Times are wall-clock; this is the world that produces the genuine
// intranode results (paper §4.1) and runs cmd/dibella in-process.
package par

import (
	"gnbody/internal/dist"
	"gnbody/internal/trace"
)

// Config parameterises a World.
type Config struct {
	P         int           // number of ranks
	MemBudget int64         // per-rank exchange-memory budget; <=0 unlimited
	Tracer    *trace.Tracer // structured-event layer; nil disables tracing
}

// World is a loopback dist world.
type World = dist.World

// NewWorld builds a P-rank world on one node: every frame is classed
// intra-node, no rank relays for another, and no progress deadline applies
// (goroutines of one process cannot lose each other).
func NewWorld(cfg Config) (*World, error) {
	return dist.NewWorld(dist.Config{P: cfg.P, MemBudget: cfg.MemBudget, Tracer: cfg.Tracer,
		NodeSize: cfg.P, NoAggregation: true, ProgressDeadline: -1})
}
