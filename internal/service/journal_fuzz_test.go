package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unicode"
)

// pendingIDs is the pending set as replay orders it.
func pendingIDs(pending []PendingJob) []string {
	ids := make([]string, len(pending))
	for i, p := range pending {
		ids[i] = p.ID
	}
	return ids
}

// FuzzReplayJournal holds replayJournal — the decoder both a restarting
// daemon (Recover) and a peer taking over (ReadPending) trust with bytes a
// crash may have cut anywhere — to its contract on arbitrary input:
//
//   - it never panics, and never returns more than one warning;
//   - a whole journal followed by a torn tail (a final line cut mid-write)
//     yields the whole journal's pending set and exactly one warning;
//   - the same damage anywhere before the final line is an error;
//   - lines replay has nothing to pair with are legal and change nothing:
//     a finished line with no accepted (a job answered at admission), device
//     progress lines, a takeover of an id it never saw; a duplicate accepted
//     re-registers its id without growing the set;
//   - finishing every pending job leaves nothing to recover.
//
// The corpus under testdata/fuzz/FuzzReplayJournal holds real journals: one
// written by a manager that served admission hits and ran a fleet before
// being killed, one drained with jobs requeued, one with a takeover record.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(""), []byte(`{"op":"acc`))
	f.Add([]byte(`{"op":"accepted","id":"j-000001","spec":{"kind":"optimize","workload":"ex1","seed":1},"time":"t"}`+"\n"+
		`{"op":"finished","id":"j-000002","state":"done","time":"t"}`+"\n"+
		`{"op":"device","id":"j-000001","device":"sw-00","state":"optimized","time":"t"}`+"\n"),
		[]byte(`{"op":"finished","id":"j-0000`))
	f.Add([]byte(`{"op":"accepted","id":"a","spec":{"kind":"profile","workload":"quickstart","seed":2},"time":"t"}`+"\n"+
		`{"op":"accepted","id":"a","spec":{"kind":"profile","workload":"quickstart","seed":3},"time":"t"}`+"\n"+
		`{"op":"takeover","id":"zz","by":"r2","time":"t"}`+"\n"+
		`{"op":"requeued","id":"a","time":"t"}`+"\n"),
		[]byte("\xff\xfe"))
	f.Add([]byte("not json\n{\"op\":\"finished\",\"id\":\"x\"}\n"), []byte("{"))
	f.Add([]byte(`{"op":"accepted","id":"nospec","time":"t"}`+"\n\n"), []byte(`[1,2`))

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
		whole := bytes.TrimRightFunc(journal, unicode.IsSpace)
		if len(whole) > 0 {
			whole = append(whole[:len(whole):len(whole)], '\n')
		}
		replay := func(what string, parts ...[]byte) []string {
			t.Helper()
			got, w, err := replayJournal(bytes.Join(parts, nil), "fuzz")
			if err != nil || len(w) != 0 {
				t.Fatalf("%s: %v, warnings %q", what, err, w)
			}
			return pendingIDs(got)
		}

		// A torn tail: one unterminated line that is not a record.
		torn := len(bytes.TrimSpace(tail)) > 0 && !bytes.ContainsAny(tail, "\n") &&
			json.Unmarshal(tail, new(journalEntry)) != nil
		if torn {
			got, w, err := replayJournal(append(whole[:len(whole):len(whole)], tail...), "fuzz")
			if err != nil || len(w) != 1 {
				t.Fatalf("whole journal + torn tail %q: %v, %d warnings; want the tail dropped with one", tail, err, len(w))
			}
			if !reflect.DeepEqual(pendingIDs(got), ids) {
				t.Fatalf("torn tail changed the pending set: %q, want %q", pendingIDs(got), ids)
			}
			// The same bytes anywhere but last are corruption.
			if len(whole) > 0 {
				if _, _, err := replayJournal(bytes.Join([][]byte{tail, []byte("\n"), whole}, nil), "fuzz"); err == nil {
					t.Fatalf("damage %q before the final line replayed without error", tail)
				}
			}
		}

		// Lines with nothing to pair with are legal and inert.
		const ghost = "never accepted"
		if seen[ghost] {
			return
		}
		inert := []byte(`{"op":"finished","id":"` + ghost + `","state":"done","time":"t"}` + "\n" +
			`{"op":"device","id":"` + ghost + `","device":"sw-00","state":"optimized","time":"t"}` + "\n" +
			`{"op":"takeover","id":"` + ghost + `","by":"r9","time":"t"}` + "\n" +
			`{"op":"requeued","id":"` + ghost + `","time":"t"}` + "\n")
		if got := replay("inert lines appended", whole, inert); !reflect.DeepEqual(got, ids) {
			t.Fatalf("inert lines changed the pending set: %q, want %q", got, ids)
		}
		if got := replay("inert lines first", inert, whole); !reflect.DeepEqual(got, ids) {
			t.Fatalf("leading inert lines changed the pending set: %q, want %q", got, ids)
		}

		// Re-accepting a pending id keeps the set's size; finishing every
		// pending id empties it.
		var dup, finish bytes.Buffer
		for _, p := range pending {
			spec, err := json.Marshal(p.Spec)
			if err != nil {
				t.Fatalf("recovered spec of %q does not marshal: %v", p.ID, err)
			}
			id, _ := json.Marshal(p.ID)
			fmt.Fprintf(&dup, `{"op":"accepted","id":%s,"spec":%s,"time":"t"}`+"\n", id, spec)
			fmt.Fprintf(&finish, `{"op":"finished","id":%s,"state":"done","time":"t"}`+"\n", id)
		}
		if got := replay("every pending job re-accepted", whole, dup.Bytes()); !reflect.DeepEqual(got, ids) {
			t.Fatalf("re-accepting in order gave %q, want %q", got, ids)
		}
		if got := replay("the pending set on its own", dup.Bytes()); !reflect.DeepEqual(got, ids) {
			t.Fatalf("the pending set re-journaled replays to %q, want %q", got, ids)
		}
		if got := replay("every pending job finished", whole, finish.Bytes()); len(got) != 0 {
			t.Fatalf("%q still pending after a finished record each", got)
		}
	})
}
