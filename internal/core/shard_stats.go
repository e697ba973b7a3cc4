package core

// Read-only views over the shard set: the logical delta, the next dense
// key, and the per-shard summaries the monitoring surfaces serve.

import (
	"sort"
	"strings"
	"time"
)

// nextID serves DB.NextID on a sharded database: the root's next global
// dense key, a dimension's next key from shard 0 (replicas agree).
// Caller holds the coordinator's device gate.
func (ss *shardSet) nextID(db *DB, table string) (uint32, error) {
	root := db.sch.Root()
	if strings.EqualFold(table, root.Name) {
		ss.mu.RLock()
		defer ss.mu.RUnlock()
		return uint32(len(ss.rootMap)) + 1, nil
	}
	return ss.child(0).NextID(table)
}

// deltaStats aggregates the per-shard delta state into the logical
// database view: root entries sum across shards, dimension entries are
// counted once (shard 0 stands for the identical replicas).
func (ss *shardSet) deltaStats(db *DB) []DeltaStats {
	root := db.sch.Root()
	merged := map[string]*DeltaStats{}
	for s := range ss.children {
		for _, d := range ss.child(s).DeltaStats() {
			isRoot := strings.EqualFold(d.Table, root.Name)
			if !isRoot && s != 0 {
				continue
			}
			m := merged[d.Table]
			if m == nil {
				m = &DeltaStats{Table: d.Table}
				merged[d.Table] = m
			}
			m.Rows += d.Rows
			m.Tombstones += d.Tombstones
			m.DeviceB += d.DeviceB
			m.HostB += d.HostB
		}
	}
	out := make([]DeltaStats, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// logicalEntries counts the logical delta size (rows plus tombstones,
// dimensions counted once) — the sharded analogue of delta.Entries()
// that drives auto-checkpointing.
func (ss *shardSet) logicalEntries(db *DB) int {
	total := 0
	for _, d := range ss.deltaStats(db) {
		total += d.Rows + d.Tombstones
	}
	return total
}

// ShardCount reports how many device shards back this DB; 0 means the
// classic single-device engine.
func (db *DB) ShardCount() int {
	if db.shards == nil {
		return 0
	}
	return len(db.shards.children)
}

// ShardInfo summarizes one device shard for monitoring surfaces.
type ShardInfo struct {
	Shard           int
	RootRows        int              // live root rows mapped to this shard
	SimTime         time.Duration    // the shard clock's accumulated simulated time
	Storage         StorageBreakdown // the shard's flash footprint
	DeltaRows       int              // delta-resident row images on this shard
	DeltaTombstones int              // tombstones on this shard
}

// ShardInfos reports per-shard state (nil on single-device DBs).
func (db *DB) ShardInfos() []ShardInfo {
	ss := db.shards
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	counts := make([]int, len(ss.children))
	for i := range counts {
		counts[i] = len(ss.localToGlobal[i])
	}
	ss.mu.RUnlock()
	out := make([]ShardInfo, len(ss.children))
	for i := range ss.children {
		c := ss.child(i)
		info := ShardInfo{Shard: i, RootRows: counts[i], Storage: c.Storage(), SimTime: c.shardSimTime()}
		for _, d := range c.DeltaStats() {
			info.DeltaRows += d.Rows
			info.DeltaTombstones += d.Tombstones
		}
		out[i] = info
	}
	return out
}
