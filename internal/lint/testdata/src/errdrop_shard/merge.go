// Fixture: silently discarded error returns from the shard merge's
// must-check list. A dropped Dispatch is a stage whose validation
// verdicts vanished — a missing, corrupt or foreign shard passes as
// merged without a trace; dropped Closes leak the loopback listeners;
// a dropped sidecar Write publishes a sharded run with no per-shard
// provenance.
package shard

import (
	"context"

	"pornweb/internal/provenance"
	"pornweb/internal/shard"
)

// MergeDropped drops every control-plane error.
func MergeDropped(ctx context.Context, c *shard.Coordinator, as []shard.Assignment, s *shard.Server, sm *provenance.ShardManifest) {
	c.Dispatch(ctx, as)     // dropped: the validation verdicts vanish
	defer c.Close()         // dropped: the listener leaks
	s.Close()               // dropped: same for the worker server
	sm.Write("shards.json") // dropped: the sidecar may not exist
}

// MergeChecked handles or acknowledges every error; no findings.
func MergeChecked(ctx context.Context, c *shard.Coordinator, as []shard.Assignment, s *shard.Server) (*shard.Merged, error) {
	merged, err := c.Dispatch(ctx, as)
	if err != nil {
		return nil, err
	}
	_ = s.Close() // acknowledged drop
	return merged, nil
}
