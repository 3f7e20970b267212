package cluster

// IdleLegs reports how many legs to shard sit on the gateway's idle stack.
func (g *Gateway) IdleLegs(shard string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.idle[shard])
}
