package translog

import (
	"hash/fnv"
	stdlog "log"
	"sync"
	"time"
)

// Per-host sharding: the ShardedAppender is the log's one batching
// front. It gives each host its own buffer (keyed by the statedir
// HostInfoFile identity every Entry carries in its Host field) behind
// its own lock, and a background merging sequencer (sequencer.go) that
// drains ready shard batches round-robin and commits them as ONE merged
// Merkle batch per cycle: one tree-head signature, one persisted-head
// replacement and one trust-anchor bump cover every host's entries for
// that cycle, instead of each host paying them separately. On a sharded
// durable store (StoreConfig.Shards) each host's records also land in
// the host's own WAL segment stream, written and fsynced in parallel;
// over an unsharded store (one stream, or an in-memory log) the same
// sequencer still batches and pipelines the commits.
//
// The contract producers rely on: Append never blocks on hashing,
// signing or fsync; Flush waits out everything buffered before the call
// including in-flight commits; Close flushes, then refuses further
// appends with ErrClosedLog.
//
// The trust story is unchanged: global indices are assigned under the
// log lock, every cycle commits through Log.appendPrepared exactly like
// an ordinary batch, and the TrustAnchor chain sees one head per cycle.

// defaultShards is the shard count used when neither the config nor the
// log's store names one.
const defaultShards = 16

// ShardOf maps a host identity to its shard slot in [0, shards). The
// Verification Manager maps each enrolled host through this same
// function, so "which stream holds host X's records" is answerable
// without reading the log.
func ShardOf(host string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(shards))
}

// ShardedAppenderConfig tunes the sharded appender.
type ShardedAppenderConfig struct {
	// Shards is the number of per-host buffers. Defaults to the log
	// store's shard count when the log is sharded-durable, else
	// defaultShards.
	Shards int
	// MaxBatch caps how many entries one shard contributes to one
	// sequencer cycle (default 1024) — so one chatty host cannot starve
	// the others out of a cycle. The merged cycle is what amortises the
	// tree-head signature, the persisted-head replacement and the anchor
	// bump, and the sequencer prepares the cycle off the log lock, so a
	// large quantum buys throughput without stretching the lock hold.
	MaxBatch int
	// FlushInterval bounds how long a buffered entry waits for a cycle
	// (default 5ms).
	FlushInterval time.Duration
	// SlowCycleBudget, when > 0, makes the sequencer emit one
	// structured diagnostic line for any cycle whose end-to-end latency
	// (gather through anchor commit) exceeds it: the full phase
	// breakdown plus which shard slots fed the cycle and how many
	// entries each contributed (obs.CycleTrace). Zero disables the log;
	// the translog_sequencer_cycle_seconds histogram records latency
	// either way.
	SlowCycleBudget time.Duration
	// SlowCycleLog receives the slow-cycle lines (log.Printf shaped).
	// Defaults to the standard logger.
	SlowCycleLog func(format string, args ...any)
}

// hostShard is one host slot's buffer. Append touches only this lock, so
// producers on different hosts never contend. head marks how much of
// pending the sequencer has already drained — consuming by cursor keeps
// a backlogged buffer from being slid or reallocated every cycle, and
// the array is recycled (reset, capacity kept) once fully drained.
type hostShard struct {
	mu      sync.Mutex
	pending []Entry
	head    int
	closed  bool
}

// buffered returns the undrained entry count. Callers hold sh.mu.
func (sh *hostShard) buffered() int { return len(sh.pending) - sh.head }

// ShardedAppender buffers entries per host and commits them through a
// merging sequencer. See the package notes above.
type ShardedAppender struct {
	log      *Log
	shards   []*hostShard
	maxBatch int
	interval time.Duration
	workers  int
	// shardInst are the pre-resolved per-shard telemetry handles; the
	// slow-cycle diagnostic is configured alongside them.
	shardInst  []shardInstrument
	slowBudget time.Duration
	slowLog    func(format string, args ...any)

	// mu guards the commit-visible state the Flush/Close contract hangs
	// off; the idle cond broadcasts whenever a cycle finishes.
	mu         sync.Mutex
	committing bool
	closed     bool
	err        error
	idle       *sync.Cond

	// next rotates the shard the sequencer drains first each cycle, so
	// no host is structurally last. Touched only by the sequencer's
	// pipeline (one gather at a time, channel-ordered).
	next int
	// bufs are the two cycle-buffer sets the pipeline ping-pongs
	// (sequencer.go).
	bufs [2]cycleBuffers

	kick chan struct{}
	done chan struct{}
}

// NewShardedAppender starts a sharded appender for log.
func NewShardedAppender(log *Log, cfg ShardedAppenderConfig) *ShardedAppender {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards
		if log.store != nil && log.store.shardCount() > 1 {
			shards = log.store.shardCount()
		}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.SlowCycleLog == nil {
		cfg.SlowCycleLog = stdlog.Printf
	}
	sa := &ShardedAppender{
		log:        log,
		shards:     make([]*hostShard, shards),
		maxBatch:   cfg.MaxBatch,
		interval:   cfg.FlushInterval,
		workers:    prepareWorkers(),
		shardInst:  shardInstruments(shards),
		slowBudget: cfg.SlowCycleBudget,
		slowLog:    cfg.SlowCycleLog,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	for i := range sa.shards {
		sa.shards[i] = &hostShard{}
	}
	sa.idle = sync.NewCond(&sa.mu)
	go sa.loop()
	return sa
}

// Shards returns the appender's shard count.
func (sa *ShardedAppender) Shards() int { return len(sa.shards) }

// Append buffers one entry on its host's shard. It takes only that
// shard's lock — producers for different hosts proceed in parallel —
// and never blocks on hashing, signing or fsync.
func (sa *ShardedAppender) Append(e Entry) error {
	slot := ShardOf(e.Host, len(sa.shards))
	sh := sa.shards[slot]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosedLog
	}
	sh.pending = append(sh.pending, e)
	full := sh.buffered() >= sa.maxBatch
	sh.mu.Unlock()
	sa.shardInst[slot].buffered.Add(1)
	if full {
		sa.wake()
	}
	return nil
}

func (sa *ShardedAppender) wake() {
	select {
	case sa.kick <- struct{}{}:
	default:
	}
}

// buffered counts entries waiting across every shard. Callers hold
// sa.mu; the shard locks nest inside it (Append never holds a shard
// lock while taking sa.mu, so the order cannot invert).
func (sa *ShardedAppender) buffered() int {
	n := 0
	for _, sh := range sa.shards {
		sh.mu.Lock()
		n += sh.buffered()
		sh.mu.Unlock()
	}
	return n
}

// Flush blocks until every entry buffered before the call is committed,
// returning the first commit error if any cycle failed. It waits out an
// in-flight cycle even when the appender is closing — the sequencer's
// final cycle drains the buffers and broadcasts, so this cannot hang,
// and returning early would let a Flush racing Close report nil before
// the last cycle (and its error) lands.
func (sa *ShardedAppender) Flush() error {
	sa.wake()
	sa.mu.Lock()
	defer sa.mu.Unlock()
	for sa.committing || sa.buffered() > 0 {
		sa.idle.Wait()
	}
	return sa.err
}

// Close flushes, stops the sequencer and refuses further appends.
func (sa *ShardedAppender) Close() error {
	err := sa.Flush()
	sa.mu.Lock()
	if sa.closed {
		sa.mu.Unlock()
		return err
	}
	sa.closed = true
	sa.mu.Unlock()
	for _, sh := range sa.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	close(sa.done)
	return err
}
