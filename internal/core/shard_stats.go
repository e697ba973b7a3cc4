package core

// Read-only views over the shard set: the logical delta, the next dense
// key, the base cardinalities, and the per-shard summaries the monitoring
// surfaces serve. The root table's rows are partitioned, so its figures
// sum over the engines; a dimension is replicated on every engine, so
// engine 0 stands for all of them.

import (
	"sort"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/schema"
)

// tableDelta returns the logical delta of table t: summed over the
// engines for the root, engine 0's for a dimension.
func (ss *shardSet) tableDelta(t, root *schema.Table) DeltaStats {
	d := DeltaStats{Table: t.Name}
	if !strings.EqualFold(t.Name, root.Name) {
		ss.engines[0].addDelta(t, &d)
		return d
	}
	for _, e := range ss.engines {
		e.addDelta(t, &d)
	}
	return d
}

// deltaStats serves DB.DeltaStats: the dirty tables' logical deltas,
// sorted by name.
func (ss *shardSet) deltaStats(sch *schema.Schema) []DeltaStats {
	var out []DeltaStats
	for _, t := range sch.Tables() {
		if d := ss.tableDelta(t, sch.Root()); d.Rows+d.Tombstones > 0 {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// deltaTotals sums the logical delta's rows, tombstones (together what
// drives auto-checkpointing) and device bytes over the tables without
// allocating: DML refreshes the delta gauges from it after every
// statement.
func (ss *shardSet) deltaTotals(sch *schema.Schema) (rows, tombstones int, deviceB int64) {
	for _, t := range sch.Tables() {
		d := ss.tableDelta(t, sch.Root())
		rows, tombstones, deviceB = rows+d.Rows, tombstones+d.Tombstones, deviceB+d.DeviceB
	}
	return rows, tombstones, deviceB
}

// nextID serves DB.NextID after the load: the root's next global dense
// key, a dimension's next key from engine 0 (replicas agree).
func (ss *shardSet) nextID(root, t *schema.Table) uint32 {
	if strings.EqualFold(t.Name, root.Name) {
		ss.mu.RLock()
		defer ss.mu.RUnlock()
		return uint32(ss.roots.n) + 1
	}
	return ss.engines[0].nextID(t)
}

// rowCount serves DB.RowCount after the load: the root's base rows summed
// over the engines, a dimension's from engine 0.
func (ss *shardSet) rowCount(root *schema.Table, table string) int {
	if !strings.EqualFold(table, root.Name) {
		return ss.engines[0].baseRows(table)
	}
	n := 0
	for _, e := range ss.engines {
		n += e.baseRows(root.Name)
	}
	return n
}

// ShardCount reports how many device engines back this DB: 1 on a
// single-device database.
func (db *DB) ShardCount() int { return len(db.shards.engines) }

// ShardInfo summarizes one device shard for monitoring surfaces.
type ShardInfo struct {
	Shard           int
	RootRows        int              // live root rows mapped to this shard
	SimTime         time.Duration    // the shard clock's accumulated simulated time
	Storage         StorageBreakdown // the shard's flash footprint
	DeltaRows       int              // delta-resident row images on this shard
	DeltaTombstones int              // tombstones on this shard
}

// ShardInfos reports per-device state, one entry per engine (one on a
// single-device database, whose entry describes the device).
func (db *DB) ShardInfos() []ShardInfo {
	ss := &db.shards
	ss.mu.RLock()
	out := make([]ShardInfo, len(ss.engines))
	for i := range out {
		out[i] = ShardInfo{Shard: i, RootRows: ss.roots.rows(i)}
	}
	ss.mu.RUnlock()
	db.mu.Lock()
	loaded := db.loaded
	db.mu.Unlock()
	for i, e := range ss.engines {
		out[i].Storage, out[i].SimTime = e.storage(), e.simTime()
		if !loaded {
			continue
		}
		var d DeltaStats
		for _, t := range db.sch.Tables() {
			e.addDelta(t, &d)
		}
		out[i].DeltaRows, out[i].DeltaTombstones = d.Rows, d.Tombstones
	}
	return out
}
