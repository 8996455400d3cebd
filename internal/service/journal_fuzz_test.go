package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"p2go/internal/cache"
)

// pendingIDs is the pending set as replay orders it.
func pendingIDs(pending []PendingJob) []string {
	ids := make([]string, len(pending))
	for i, p := range pending {
		ids[i] = p.ID
	}
	return ids
}

// framed frames JSON-lines journal entries as journal records, each under
// the id its entry names ("" when it names none or does not decode).
func framed(lines ...string) []byte {
	var out []byte
	for _, line := range lines {
		var e journalEntry
		_ = json.Unmarshal([]byte(line), &e)
		out = cache.AppendRecord(out, e.ID, []byte(line))
	}
	return out
}

// entries frames journal entries as Journal.append writes them.
func entries(tb testing.TB, es ...journalEntry) []byte {
	tb.Helper()
	var out []byte
	for _, e := range es {
		rec, err := journalRecord(e)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, rec...)
	}
	return out
}

// FuzzReplayJournal holds replayJournal — the decoder both a restarting
// daemon (Recover) and a peer taking over (ReadPending) trust with bytes a
// crash may have cut anywhere — to its contract on arbitrary input:
//
//   - it never panics, and never returns more than one warning;
//   - a whole journal followed by a torn tail (a record cut short mid-write,
//     or zeros a power loss left where unsynced records were) yields the
//     whole journal's pending set and exactly one warning;
//   - the same cut record anywhere before the final record, with its header
//     whole, is an error;
//   - one flipped byte in a whole journal is a warning or an error, and
//     never recovers a job under a spec it was not accepted with;
//   - records replay has nothing to pair with are legal and change nothing:
//     a finished record with no accepted (a job answered at admission),
//     device progress records, a takeover of an id it never saw; a
//     duplicate accepted re-registers its id without growing the set;
//   - finishing every pending job leaves nothing to recover.
//
// The corpus under testdata/fuzz/FuzzReplayJournal holds real journals: one
// written by a manager that served admission hits and ran a fleet before
// being killed, one drained with jobs requeued, one with a takeover record.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(""), []byte(`{"op":"acc`))
	f.Add(framed(`{"op":"accepted","id":"j-000001","spec":{"kind":"optimize","workload":"ex1","seed":1},"time":"t"}`,
		`{"op":"finished","id":"j-000002","state":"done","time":"t"}`,
		`{"op":"device","id":"j-000001","device":"sw-00","state":"optimized","time":"t"}`),
		[]byte(`{"op":"finished","id":"j-0000`))
	f.Add(framed(`{"op":"accepted","id":"a","spec":{"kind":"profile","workload":"quickstart","seed":2},"time":"t"}`,
		`{"op":"accepted","id":"a","spec":{"kind":"profile","workload":"quickstart","seed":3},"time":"t"}`,
		`{"op":"takeover","id":"zz","by":"r2","time":"t"}`,
		`{"op":"requeued","id":"a","time":"t"}`),
		[]byte("\xff\xfe"))
	f.Add(framed("not json", `{"op":"finished","id":"x"}`), []byte("{"))
	f.Add(framed(`{"op":"accepted","id":"nospec","time":"t"}`), []byte(`[1,2`))
	f.Add([]byte(`{"op":"accepted","id":"j-000001","spec":{"kind":"optimize","workload":"ex1","seed":17},"time":"t"}`+"\n"), []byte{})

	f.Fuzz(func(t *testing.T, journal, tail []byte) {
		pending, warnings, err := replayJournal(journal, "fuzz")
		if err != nil {
			if pending != nil {
				t.Fatalf("replay failed (%v) and still returned %d pending jobs", err, len(pending))
			}
			return
		}
		if len(warnings) > 1 {
			t.Fatalf("%d warnings from one replay: %q", len(warnings), warnings)
		}
		ids := pendingIDs(pending)
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("job %q pending twice: %q", id, ids)
			}
			seen[id] = true
		}
		if len(warnings) == 1 {
			return // the input itself ends torn; the rest is about whole journals
		}
		whole := journal[:len(journal):len(journal)]
		replay := func(what string, parts ...[]byte) []string {
			t.Helper()
			got, w, err := replayJournal(bytes.Join(parts, nil), "fuzz")
			if err != nil || len(w) != 0 {
				t.Fatalf("%s: %v, warnings %q", what, err, w)
			}
			return pendingIDs(got)
		}

		// A torn tail: tail's record cut short, or zeros.
		rec := cache.AppendRecord(nil, "torn", tail)
		cut := 1 + len(tail)%(len(rec)-1)
		for _, torn := range [][]byte{rec[:cut], make([]byte, 1+len(tail)%64)} {
			got, w, err := replayJournal(append(whole, torn...), "fuzz")
			if err != nil || len(w) != 1 {
				t.Fatalf("whole journal + torn tail %q: %v, %d warnings; want the tail dropped with one", torn, err, len(w))
			}
			if !reflect.DeepEqual(pendingIDs(got), ids) {
				t.Fatalf("torn tail changed the pending set: %q, want %q", pendingIDs(got), ids)
			}
		}
		// The same cut record anywhere but last is corruption, once its
		// header is whole and bytes follow the extent it declares (and they
		// are not, by chance, the rest of the record).
		after := append(whole, bytes.Repeat([]byte{'x'}, len(rec))...)
		if cut >= 8 && !bytes.HasPrefix(after, rec[cut:]) {
			if _, _, err := replayJournal(append(rec[:cut:cut], after...), "fuzz"); err == nil {
				t.Fatalf("cut record %q before the final record replayed without error", rec[:cut])
			}
		}

		// One flipped byte: a warning or an error, never a changed spec.
		if len(whole) > 0 && len(tail) > 0 {
			flipped := bytes.Clone(whole)
			flipped[len(tail)*7919%len(whole)] ^= tail[0] | 1
			got, w, err := replayJournal(flipped, "fuzz")
			if err == nil && len(w) == 0 {
				t.Fatalf("a flipped byte replayed with no warning or error")
			}
			specs := map[string]JobSpec{}
			for _, p := range pending {
				specs[p.ID] = p.Spec
			}
			for _, p := range got {
				if want, ok := specs[p.ID]; !ok || !reflect.DeepEqual(p.Spec, want) {
					t.Fatalf("a flipped byte recovered %q with spec %+v, want %+v", p.ID, p.Spec, want)
				}
			}
		}

		// Records with nothing to pair with are legal and inert.
		const ghost = "never accepted"
		if seen[ghost] {
			return
		}
		inert := entries(t,
			journalEntry{Op: "finished", ID: ghost, State: "done"},
			journalEntry{Op: "device", ID: ghost, Device: "sw-00", State: "optimized"},
			journalEntry{Op: "takeover", ID: ghost, By: "r9"},
			journalEntry{Op: "requeued", ID: ghost})
		if got := replay("inert records appended", whole, inert); !reflect.DeepEqual(got, ids) {
			t.Fatalf("inert records changed the pending set: %q, want %q", got, ids)
		}
		if got := replay("inert records first", inert, whole); !reflect.DeepEqual(got, ids) {
			t.Fatalf("leading inert records changed the pending set: %q, want %q", got, ids)
		}

		// Re-accepting a pending id keeps the set's size; finishing every
		// pending id empties it.
		var dup, finish []byte
		for _, p := range pending {
			spec := p.Spec
			dup = append(dup, entries(t, journalEntry{Op: "accepted", ID: p.ID, Spec: &spec})...)
			finish = append(finish, entries(t, journalEntry{Op: "finished", ID: p.ID, State: "done"})...)
		}
		if got := replay("every pending job re-accepted", whole, dup); !reflect.DeepEqual(got, ids) {
			t.Fatalf("re-accepting in order gave %q, want %q", got, ids)
		}
		if got := replay("the pending set on its own", dup); !reflect.DeepEqual(got, ids) {
			t.Fatalf("the pending set re-journaled replays to %q, want %q", got, ids)
		}
		if got := replay("every pending job finished", whole, finish); len(got) != 0 {
			t.Fatalf("%q still pending after a finished record each", got)
		}
	})
}
