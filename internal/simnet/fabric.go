package simnet

import "ustore/internal/simtime"

// Fabric is the frozen entry point of code that once gave each component a
// network of its own on a simtime.Engine. Every argument of Network now
// names the same network, built on the engine's scheduler with the
// engine's lookahead as its hop latency. The perf/ benchmark still calls
// it; the fleet builds its network with NewWithLatency.
type Fabric struct {
	engine *simtime.Engine
	net    *Network
}

// NewFabric returns a fabric over the engine.
func NewFabric(engine *simtime.Engine) *Fabric { return &Fabric{engine: engine} }

// Network returns the fabric's one network, creating it on first use; the
// argument is accepted and ignored.
func (f *Fabric) Network(int) *Network {
	if f.net == nil {
		f.net = NewWithLatency(f.engine.Part(0), f.engine.Lookahead())
	}
	return f.net
}
