package client

// RemoteAddr returns the address of the daemon this connection landed on:
// through a gateway, that is the shard its Redirect named, not the gateway.
func (c *Conn) RemoteAddr() string { return c.wc.RemoteAddr().String() }
