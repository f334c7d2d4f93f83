package exocore

import (
	"encoding/binary"

	"exocore/internal/energy"
)

// Persist is a durable unit-outcome store attached to a Cache (see
// AttachPersist): Get returns the value last Put under key, or
// ok=false. Both sides are best-effort — a persist layer may drop
// writes (eviction, I/O errors) at the cost of re-computation, never
// correctness. Implementations must be safe for concurrent use and
// must not retain key or val after the call returns (the engine reuses
// scratch buffers); internal/store satisfies this interface.
type Persist interface {
	Get(key []byte) ([]byte, bool)
	Put(key, val []byte)
}

// AttachPersist connects a durable store to the cache, namespaced by
// ns. The in-memory unitKey cannot cross processes — its signature is
// an intern-trie node ID whose value depends on insertion order — so
// persisted entries are keyed by the canonical serialization of the
// unit's structure (appendUnitSig) under ns, which must uniquely
// identify the cache's (benchmark trace, core config, BSA set) tuple
// across daemon restarts (internal/runner derives it from the workload
// name, core name, -maxdyn and a fingerprint of the model parameters).
// Attach before the cache's first Run;
// the field is read without synchronization afterwards.
func (c *Cache) AttachPersist(p Persist, ns string) {
	c.persist = p
	c.persistNS = ns
}

// persistKey serializes a unit's identity for the durable store:
// namespace, dynamic span, and per segment the start offset, assigned
// loop, model name and configuration residency — the same information
// unitKey interns, in a process-independent encoding.
//
//	ns | uvarint(start) uvarint(end) uvarint(nsegs)
//	   | per segment: uvarint(offset) uvarint(loop+1)
//	                  uvarint(len(name)) name cfgRes
//
// General-core segments write loop 0 / empty name / residency 0,
// mirroring descOf (their loop ID does not affect the outcome).
func (c *Cache) persistKey(u *unit, scratch []byte) []byte {
	start := u.segs[0].Start
	b := append(scratch[:0], c.persistNS...)
	b = binary.AppendUvarint(b, uint64(start))
	b = binary.AppendUvarint(b, uint64(u.segs[len(u.segs)-1].End))
	b = binary.AppendUvarint(b, uint64(len(u.segs)))
	for i, seg := range u.segs {
		b = binary.AppendUvarint(b, uint64(seg.Start-start))
		name := u.names[i]
		if name == "" {
			b = append(b, 0, 0, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(seg.LoopID+1))
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		if u.cfgRes[i] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// outcomeVersion stamps persisted outcome values; a decoder seeing any
// other version treats the entry as a miss (forward compatibility
// across format changes without a store wipe).
const outcomeVersion = 1

// encodeOutcome serializes an outcome's per-segment durations and
// energy-event deltas. Class attribution is never persisted — the
// engine skips the persist path entirely for RecordRegions runs — and
// prefix aliasing is flattened through the n/dur/counts accessors.
func encodeOutcome(o *unitOutcome, scratch []byte) []byte {
	n := o.n()
	b := append(scratch[:0], outcomeVersion)
	b = binary.AppendUvarint(b, uint64(energy.NumEvents))
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		b = binary.AppendUvarint(b, uint64(o.dur(i)))
		for _, v := range o.counts(i) {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// decodeOutcome is the inverse of encodeOutcome; nil means the value
// is from another format version or malformed (treated as a miss).
func decodeOutcome(raw []byte) *unitOutcome {
	if len(raw) < 1 || raw[0] != outcomeVersion {
		return nil
	}
	p := raw[1:]
	ev, k := binary.Uvarint(p)
	if k <= 0 || ev != uint64(energy.NumEvents) {
		return nil
	}
	p = p[k:]
	n, k := binary.Uvarint(p)
	if k <= 0 || n == 0 || n > 1<<24 {
		return nil
	}
	p = p[k:]
	o := &unitOutcome{
		segDurs:   make([]int64, n),
		segCounts: make([]energy.Counts, n),
	}
	for i := range o.segDurs {
		d, k := binary.Uvarint(p)
		if k <= 0 {
			return nil
		}
		o.segDurs[i] = int64(d)
		p = p[k:]
		for j := range o.segCounts[i] {
			v, k := binary.Varint(p)
			if k <= 0 {
				return nil
			}
			o.segCounts[i][j] = v
			p = p[k:]
		}
	}
	if len(p) != 0 {
		return nil
	}
	return o
}
