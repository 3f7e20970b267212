package cluster

import "cohort/internal/wire"

// IdleLegs reports how many legs to shard sit on the gateway's idle stack.
// It pops them and puts them back in their order.
func (g *Gateway) IdleLegs(shard string) int {
	var addr string
	for _, sh := range g.cfg.Catalog.Snapshot().Shards {
		if sh.Name == shard {
			addr = sh.Addr
		}
	}
	var legs []*wire.Conn
	for l := g.legs.Pop(addr); l != nil; l = g.legs.Pop(addr) {
		legs = append(legs, l)
	}
	for i := len(legs) - 1; i >= 0; i-- {
		g.legs.Put(legs[i])
	}
	return len(legs)
}
