package translog

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"time"

	"vnfguard/internal/obs"
)

// The merging sequencer: the background half of the ShardedAppender. It
// wakes on a kick (a shard buffer filled, a Flush) or the flush-interval
// tick, and runs cycles until every shard buffer is empty. One cycle =
// drain up to MaxBatch entries from each shard, starting at a rotating
// shard so no host is structurally last (round-robin); marshal and
// leaf-hash the merged batch on every core; commit it through
// Log.appendPrepared as ONE batch — global indices assigned under the
// log lock, one tree-head signature, one persisted head, one
// trust-anchor bump. On a sharded store the commit also fans the
// records out to the per-host segment streams, which write and fsync in
// parallel. The per-entry cost of the serial commit work therefore
// shrinks with the number of hosts that had entries ready, which is
// what lets the log ingest a fleet without serialising it.

// loop is the sequencer goroutine.
func (sa *ShardedAppender) loop() {
	ticker := time.NewTicker(sa.interval)
	defer ticker.Stop()
	for {
		select {
		case <-sa.done:
			// The final cycle: Close has already fenced new appends, so
			// this drains everything that made it into a buffer.
			sa.commitCycle()
			return
		case <-sa.kick:
			sa.commitCycle()
		case <-ticker.C:
			sa.commitCycle()
		}
	}
}

// cycleBuffers is one cycle's reusable storage. A cycle's batch,
// payload arena and hash slice are dead the moment its commit returns,
// and the pipeline is one deep, so two sets ping-pong forever: cycle
// N+1 fills one while cycle N commits out of the other. That keeps a
// steady-state sequencer from allocating (and the collector from
// scanning) megabytes per cycle.
type cycleBuffers struct {
	batch    []Entry
	payloads [][]byte
	hashes   []Hash
	// arena backs the serial prepare path; arenas back the parallel
	// path, one per worker slot.
	arena  []byte
	arenas [][]byte
	// trace is the cycle's phase/contribution record, reset per cycle.
	// It rides the ping-ponged buffers so the pipelined gather of cycle
	// N+1 never races the commit of cycle N over one trace.
	trace obs.CycleTrace
}

// gatherPrepare drains one cycle's worth of shard buffers into bufs and
// hashes it, nil when every buffer is empty.
func (sa *ShardedAppender) gatherPrepare(bufs *cycleBuffers) *cycleBuffers {
	bufs.trace.Reset()
	start := time.Now()
	bufs.batch = sa.gather(bufs.batch[:0], &bufs.trace)
	if len(bufs.batch) == 0 {
		return nil
	}
	bufs.trace.Entries = len(bufs.batch)
	bufs.trace.Gather = time.Since(start)
	start = time.Now()
	prepareEntriesInto(bufs, sa.workers)
	bufs.trace.Marshal = time.Since(start)
	return bufs
}

// commitCycle runs merge-and-commit cycles until the buffers are empty,
// pipelined one deep: while cycle N sits in the log commit (tree, head
// signature, stream writes, fsyncs), cycle N+1 is already being gathered
// and hashed — the commit's I/O wait hides the next cycle's CPU.
// committing is raised before the first buffer is drained and stays up
// until the last gathered entry is committed, so a concurrent Flush can
// never observe "buffers empty, nothing committing" while entries are
// in flight between a buffer and the tree.
func (sa *ShardedAppender) commitCycle() {
	sa.mu.Lock()
	sa.committing = true
	sa.mu.Unlock()
	cur := sa.gatherPrepare(&sa.bufs[0])
	spare := &sa.bufs[1]
	for cur != nil {
		next := make(chan *cycleBuffers, 1)
		go func(bufs *cycleBuffers) { next <- sa.gatherPrepare(bufs) }(spare)
		commitStart := time.Now()
		_, err := sa.log.appendPrepared(cur.batch, cur.payloads, cur.hashes, &cur.trace)
		if err != nil {
			sa.mu.Lock()
			if sa.err == nil {
				sa.err = err
			}
			sa.mu.Unlock()
		}
		cur.trace.Total = cur.trace.Gather + cur.trace.Marshal + time.Since(commitStart)
		mCycles.Inc()
		mCycleSeconds.Observe(cur.trace.Total)
		mPhaseGather.Observe(cur.trace.Gather)
		mPhaseMarshal.Observe(cur.trace.Marshal)
		if sa.slowBudget > 0 && cur.trace.Total > sa.slowBudget {
			mSlowCycles.Inc()
			sa.slowLog("translog: slow sequencer cycle (budget %v): %s", sa.slowBudget, &cur.trace)
		}
		spare = cur // cur's commit is done; its buffers are free again
		cur = <-next
	}
	sa.mu.Lock()
	sa.committing = false
	sa.idle.Broadcast()
	sa.mu.Unlock()
}

// gather drains up to MaxBatch entries from each shard into batch,
// round-robin from a rotating start, recording each shard's
// contribution in tr.
func (sa *ShardedAppender) gather(batch []Entry, tr *obs.CycleTrace) []Entry {
	n := len(sa.shards)
	start := sa.next
	sa.next = (start + 1) % n
	for i := 0; i < n; i++ {
		slot := (start + i) % n
		sh := sa.shards[slot]
		sh.mu.Lock()
		take := sh.buffered()
		if take > sa.maxBatch {
			take = sa.maxBatch
		}
		if take > 0 {
			batch = append(batch, sh.pending[sh.head:sh.head+take]...)
			sh.head += take
			if sh.head == len(sh.pending) {
				// Fully drained: recycle the backing array (capacity
				// kept) instead of re-growing — and re-zeroing — a fresh
				// one every cycle.
				sh.pending = sh.pending[:0]
				sh.head = 0
			} else if sh.head >= 4096 && sh.head*2 >= len(sh.pending) {
				// A shard that never quite empties must not grow its
				// array forever behind an advancing cursor; compacting
				// only once the drained half dominates keeps the move
				// amortised O(1) per entry.
				rest := copy(sh.pending, sh.pending[sh.head:])
				sh.pending = sh.pending[:rest]
				sh.head = 0
			}
		}
		sh.mu.Unlock()
		if take > 0 {
			tr.Hosts = append(tr.Hosts, obs.ShardContribution{Shard: slot, Entries: take})
			sa.shardInst[slot].drained.Add(uint64(take))
			sa.shardInst[slot].buffered.Add(-int64(take))
		}
	}
	return batch
}

// prepareWorkers picks the fan-out for prepareEntries.
func prepareWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// prepareEntries computes the canonical encodings and leaf hashes for a
// batch — the simple allocating form AppendBatch uses for one-off
// batches.
func prepareEntries(batch []Entry, workers int) ([][]byte, []Hash) {
	bufs := &cycleBuffers{batch: batch}
	prepareEntriesInto(bufs, workers)
	return bufs.payloads, bufs.hashes
}

// prepareEntriesInto computes the canonical encodings and leaf hashes
// for bufs.batch, fanning the work across workers when the batch is big
// enough to pay for the goroutines. The sequencer's merged cycles run
// it on every core before the log lock is taken. Entries marshal into
// an arena with the RFC 6962 leaf prefix in place — the leaf hash runs
// straight over the arena, no per-entry allocation — and the arena and
// result slices recycle through bufs across cycles.
func prepareEntriesInto(bufs *cycleBuffers, workers int) {
	batch := bufs.batch
	n := len(batch)
	if cap(bufs.payloads) < n {
		bufs.payloads = make([][]byte, n)
	}
	bufs.payloads = bufs.payloads[:n]
	if cap(bufs.hashes) < n {
		bufs.hashes = make([]Hash, n)
	}
	bufs.hashes = bufs.hashes[:n]
	payloads, hashes := bufs.payloads, bufs.hashes
	prep := func(lo, hi int, arena []byte) {
		for i := lo; i < hi; i++ {
			start := len(arena)
			arena = append(arena, leafPrefix)
			arena = batch[i].appendTo(arena)
			leaf := arena[start:len(arena):len(arena)]
			payloads[i] = leaf[1:]
			hashes[i] = sha256.Sum256(leaf)
		}
	}
	arenaFor := func(lo, hi int, scratch []byte) []byte {
		size := 0
		for i := lo; i < hi; i++ {
			size += 1 + batch[i].marshalledSize()
		}
		if cap(scratch) < size {
			return make([]byte, 0, size)
		}
		return scratch[:0]
	}
	if workers <= 1 || n < 128 {
		bufs.arena = arenaFor(0, n, bufs.arena)
		prep(0, n, bufs.arena)
		return
	}
	chunk := (n + workers - 1) / workers
	if len(bufs.arenas) < workers {
		bufs.arenas = append(bufs.arenas, make([][]byte, workers-len(bufs.arenas))...)
	}
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		// Size the worker's recycled arena up front: prep never grows it,
		// so storing the slice back before the goroutine runs is safe.
		bufs.arenas[w] = arenaFor(lo, hi, bufs.arenas[w])
		wg.Add(1)
		go func(lo, hi int, arena []byte) {
			defer wg.Done()
			prep(lo, hi, arena)
		}(lo, hi, bufs.arenas[w])
	}
	wg.Wait()
}
