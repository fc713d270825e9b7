package pfs

// activeStreams returns the number of streams currently transferring.
func (fs *FileSystem) activeStreams() int { return len(fs.streams) }

// nodeCounters returns a snapshot of the cumulative counters for a node,
// current as of now, without creating its client: unknown nodes return
// zero counters.
func (fs *FileSystem) nodeCounters(node string) Counters {
	fs.sync()
	if c, ok := fs.clients[node]; ok {
		return c.counters
	}
	return Counters{}
}
