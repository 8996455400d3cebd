package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// decodeJobSpec decodes data through decodeSpec, the request-body decoder
// (unknown fields refused, bodies over maxSpecBytes refused).
func decodeJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	rec := httptest.NewRecorder()
	if !decodeSpec(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(data)), "job spec", &spec) {
		return spec, errors.New(rec.Body.String())
	}
	return spec, nil
}

// FuzzJobSpec holds normalize — the one step every job description passes
// before anything runs it, whether p2god decoded it from a request or a
// journal, or the CLI built it from flags — to three properties on any
// spec a request body can carry:
//
//   - nothing panics;
//   - normalize is idempotent: a normalized spec normalizes to itself;
//   - a normalized spec that is marshalled, decoded and normalized again
//     keeps its digest. Journal recovery re-normalizes the spec the journal
//     recorded, and TakeoverScan's lease is "job:" + that digest: a digest
//     that moved would recompute the job, or let two replicas own it.
//
// The corpus under testdata/fuzz/FuzzJobSpec holds one spec per workload, a
// synthetic fleet, and the spec shapes the benchmark submits.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"profile","workload":"maglev","bindings":" conn_cells = +8192 ,"}`))
	f.Add([]byte(`{"kind":"optimize","passes":[],"timeout_seconds":1e-300,"parallelism":3}`))
	f.Add([]byte(`{"kind":"fleet","fleet":{"devices":[{"name":"a","workload":"ex1"}],"injections":[{"device":"a","workload":"ex1"}],"passes":[]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := decodeJobSpec(data)
		if err != nil || once.normalize() != nil {
			return
		}
		twice, err := decodeJobSpec(data)
		if err != nil {
			t.Fatalf("the same bytes decoded once and then failed: %v", err)
		}
		if err := twice.normalize(); err != nil {
			t.Fatalf("first normalize: %v", err)
		}
		if err := twice.normalize(); err != nil {
			t.Fatalf("a normalized spec fails to normalize again: %v", err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("normalize is not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
		}
		enc, err := json.Marshal(once)
		if err != nil {
			t.Fatalf("marshal a normalized spec: %v", err)
		}
		back, err := decodeJobSpec(enc)
		if err != nil {
			t.Fatalf("decode a marshalled spec: %v\n%s", err, enc)
		}
		if err := back.normalize(); err != nil {
			t.Fatalf("a marshalled normalized spec fails to normalize: %v\n%s", err, enc)
		}
		if got, want := back.digest(), once.digest(); got != want {
			t.Fatalf("digest moved across marshal and decode: %s, want %s\n%s", got, want, enc)
		}
	})
}
