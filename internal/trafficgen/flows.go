// A trace's two derived facts — its content digest and its flow index —
// are pure functions of the packet sequence, and one optimize job replays
// one trace many times. Trace memoizes each, independently, the first time
// it is asked for.
package trafficgen

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"sync"
)

// memo holds one lazily computed fact about a packet sequence. It is keyed
// on the sequence's length and first element, so a Trace whose Packets were
// appended to, truncated or re-sliced since recomputes instead of answering
// stale. Editing packet bytes in place after the first use is not detected
// and not supported (the analysis cache, which takes the digest once per
// run, already assumes it does not happen).
type memo[T any] struct {
	mu    sync.Mutex
	n     int
	first *Packet
	v     T
}

// get returns fill(packets), computing it at most once per (length, first
// element); concurrent callers wait for the one computation.
func (m *memo[T]) get(packets []Packet, fill func([]Packet) T) T {
	if len(packets) == 0 {
		return fill(packets)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n != len(packets) || m.first != &packets[0] {
		m.v, m.n, m.first = fill(packets), len(packets), &packets[0]
	}
	return m.v
}

// Flows is a trace's flow index: its distinct (ingress port, frame) pairs.
// Flow i is represented by packet First[i], the first of Weights[i]
// identical packets; flows are in first-occurrence order, so First is
// ascending. It is shared by every caller of Trace.Flows and read-only.
type Flows struct {
	First   []int
	Weights []int
}

// Flows returns the trace's flow index, built on first use. Replaying one
// representative per flow, weighted, is what flow deduplication means for a
// stateless program.
func (t *Trace) Flows() *Flows { return t.flows.get(t.Packets, indexFlows) }

var flowSeed = maphash.MakeSeed()

func indexFlows(packets []Packet) *Flows {
	return buildFlows(packets, func(p *Packet) uint64 {
		return maphash.Bytes(flowSeed, p.Data) ^ p.Port*0x9e3779b97f4a7c15
	})
}

// buildFlows is one pass over the packets with an open-addressed table of
// flow numbers. The hash only picks the probe start: every occupied slot a
// probe meets is confirmed by comparing port and bytes, so the index is
// exact whatever hash is passed (tests pass a constant).
func buildFlows(packets []Packet, hash func(*Packet) uint64) *Flows {
	f := &Flows{}
	if len(packets) == 0 {
		return f
	}
	// At most half full, so probe chains stay short; 0 marks an empty slot
	// and flow i is stored as i+1.
	mask := uint64(1)<<bits.Len(uint(2*len(packets)-1)) - 1
	table := make([]int32, mask+1)
	for i := range packets {
		pkt := &packets[i]
		slot := hash(pkt) & mask
		for {
			j := table[slot]
			if j == 0 {
				f.First = append(f.First, i)
				f.Weights = append(f.Weights, 1)
				table[slot] = int32(len(f.First))
				break
			}
			if rep := &packets[f.First[j-1]]; rep.Port == pkt.Port && bytes.Equal(rep.Data, pkt.Data) {
				f.Weights[j-1]++
				break
			}
			slot = (slot + 1) & mask
		}
	}
	return f
}
